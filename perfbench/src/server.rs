//! `adds-cli serve` as a child process: start on an ephemeral port, wait
//! until it answers, read its counters, and stop it.

use crate::client::{self, Conn};
use adds_query::json::Json;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    // Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `cli serve` with `args` and wait until `/healthz` answers.
    pub fn start(cli: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(cli)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let addr = banner
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| ([127, 0, 0, 1], 0).into()),
        };
        if addr.is_none() {
            return Err(io::Error::other(format!(
                "server did not announce its address: {banner:?}"
            )));
        }
        server.wait_healthy()?;
        Ok(server)
    }

    fn wait_healthy(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Conn::connect(self.addr) {
                if let Ok(r) = c.roundtrip(&client::get("/healthz")) {
                    if r.status == 200 {
                        return Ok(());
                    }
                }
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!("server exited: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The `/v1/stats` document.
    pub fn stats(&self) -> io::Result<Json> {
        let mut c = Conn::connect(self.addr)?;
        let r = c.roundtrip(&client::get("/v1/stats"))?;
        let text = String::from_utf8(r.body).map_err(|_| io::Error::other("stats not UTF-8"))?;
        Json::parse(&text).map_err(io::Error::other)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
