//! The shipped `atsq serve` process and a closed-loop NDJSON client.

use crate::inputs::Item;
use atsq_service::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A running `atsq serve` child, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Starts `atsq serve` on an ephemeral loopback port and waits for
    /// its `serving on` line (printed once the index is built).
    pub fn launch(atsq: &Path, data: &Path, flags: &[&str]) -> Result<ServerProc, String> {
        let mut child = Command::new(atsq)
            .arg("serve")
            .arg("--data")
            .arg(data)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", atsq.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProc {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) => return Err("atsq serve exited before serving".into()),
                Err(e) => return Err(format!("reading atsq serve output: {e}")),
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                return Ok(server);
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// One client connection: one request line out, one reply line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // One-line turns: without NODELAY, Nagle plus delayed ACKs add
        // ~40 ms per request.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated line and returns the reply line.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends a small control op (`stats`) and parses the reply.
    pub fn control(&mut self, op: &str) -> Result<Value, String> {
        let reply = self.call(&format!("{{\"op\":\"{op}\"}}\n"))?;
        parse(reply).map_err(|e| format!("`{op}` reply: {e}"))
    }
}

/// One request of a closed loop.
pub struct Sample {
    /// Position in the request sequence.
    pub seq: usize,
    pub item: usize,
    pub start: Instant,
    pub end: Instant,
    pub reply: Result<String, String>,
}

impl Sample {
    /// Round-trip time in ms.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct LoopRun {
    /// Every request sent, in sequence order.
    pub samples: Vec<Sample>,
    /// First request to the last reply.
    pub wall_s: f64,
    /// Sequence position after the last request sent.
    pub next: usize,
}

/// Closed loop: each connection, on its own thread, sends its next
/// request as soon as the previous reply arrives, taking requests in
/// sequence order from `first` (cycling) until `seconds` have passed.
pub fn closed_loop(
    conns: &mut [Conn],
    items: &[Item],
    sequence: &[usize],
    first: usize,
    seconds: f64,
) -> LoopRun {
    let cursor = AtomicUsize::new(first);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let cursor = &cursor;
        let threads: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let start = Instant::now();
                        if start >= deadline {
                            break out;
                        }
                        // ordering: Relaxed — a ticket counter; nothing
                        // else is published through it.
                        let seq = cursor.fetch_add(1, Ordering::Relaxed);
                        let item = sequence[seq % sequence.len()];
                        let reply = conn.call(&items[item].line).map(str::to_owned);
                        let broken = reply.is_err();
                        out.push(Sample {
                            seq,
                            item,
                            start,
                            end: Instant::now(),
                            reply,
                        });
                        if broken {
                            break out;
                        }
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.seq);
    let last = samples.iter().map(|s| s.end).max().unwrap_or(t0);
    LoopRun {
        samples,
        wall_s: (last - t0).as_secs_f64(),
        next: cursor.into_inner(),
    }
}
