//! The `sac-http` process under test and a minimal keep-alive HTTP/1.1
//! client for it.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a server may take to answer its first `/healthz`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(150);

/// Client-side read timeout: a reply slower than this is a failure, not a
/// hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One HTTP reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A keep-alive client connection.  Each request goes out in one
/// `write_all` with `TCP_NODELAY` set, so any delay between request and
/// reply is the server's.
#[derive(Debug)]
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// `POST /api` with one protocol document.
    pub fn post(&mut self, body: &str) -> std::io::Result<Reply> {
        let request = format!(
            "POST /api HTTP/1.1\r\nHost: sac-bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.exchange(request.as_bytes())
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        self.exchange(format!("GET {path} HTTP/1.1\r\nHost: sac-bench\r\n\r\n").as_bytes())
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let invalid = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad Content-Length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
        Ok(Reply { status, body })
    }
}

/// A running `sac-http`, killed (SIGKILL) and reaped when dropped.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `binary args... --addr 127.0.0.1:<free port>` with stderr
    /// appended to `log`, and waits for its first `/healthz` 200.  Returns
    /// the server and the time from spawn to that reply.
    pub fn start(binary: &Path, args: &[String], log: &Path) -> Result<(Server, Duration), String> {
        let addr = free_port().map_err(|e| format!("no free port: {e}"))?;
        let stderr = File::options()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let start = Instant::now();
        let child = Command::new(binary)
            .args(args)
            .arg("--addr")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut server = Server { child, addr };
        loop {
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "sac-http exited during boot ({status}); see {}",
                    log.display()
                ));
            }
            if let Ok(reply) = Connection::open(addr).and_then(|mut c| c.get("/healthz")) {
                if reply.status == 200 {
                    return Ok((server, start.elapsed()));
                }
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err(format!("sac-http not healthy after {BOOT_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB, from `/proc/<pid>/status`.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// SIGKILL, then wait until the process is gone.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A loopback address nothing listens on right now.
fn free_port() -> std::io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// `sac-http`, built next to this executable.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p sac-live --bin {name}` into the same target directory",
            path.display()
        ))
    }
}
