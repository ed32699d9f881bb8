//! Byte-counting relays for the traced run.
//!
//! The traced run points worker and daemon clients at a relay instead of
//! the real peer; the relay forwards every byte both ways and counts
//! them, so the reported traffic is read off the wire rather than
//! computed from message counts. (Linux `/proc/<pid>/io` does not count
//! `send`/`recv` on sockets, so a process's own I/O counters cannot give
//! this figure.)

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Bytes forwarded each way. Statistics only: `Relaxed` publishes nothing
/// else, and the totals are read after the pump threads are joined.
#[derive(Debug, Default)]
pub struct Counts {
    /// Client → server.
    up: AtomicU64,
    /// Server → client.
    down: AtomicU64,
    connections: AtomicU64,
}

/// Totals of a finished relay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub up: u64,
    pub down: u64,
}

trait Duplex: Read + Write + Send + Sized + 'static {
    fn split(&self) -> io::Result<Self>;
    fn close_write(&self);
}

impl Duplex for TcpStream {
    fn split(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn close_write(&self) {
        let _ = self.shutdown(Shutdown::Write);
    }
}

impl Duplex for UnixStream {
    fn split(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn close_write(&self) {
        let _ = self.shutdown(Shutdown::Write);
    }
}

fn pump<S: Duplex>(mut from: S, to: S, count: &AtomicU64) {
    let mut to = to;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => {
                if to.write_all(&buf[..k]).is_err() {
                    break;
                }
                count.fetch_add(k as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    to.close_write();
}

/// Forwards `client` ↔ `server` on two threads until both directions end.
fn bridge<S: Duplex>(
    client: S,
    server: S,
    counts: &Arc<Counts>,
) -> io::Result<[JoinHandle<()>; 2]> {
    counts.connections.fetch_add(1, Ordering::Relaxed);
    let (c2, s2) = (client.split()?, server.split()?);
    let up = Arc::clone(counts);
    let down = Arc::clone(counts);
    Ok([
        std::thread::spawn(move || pump(client, server, &up.up)),
        std::thread::spawn(move || pump(s2, c2, &down.down)),
    ])
}

fn totals(counts: &Counts) -> Traffic {
    Traffic {
        up: counts.up.load(Ordering::Relaxed),
        down: counts.down.load(Ordering::Relaxed),
    }
}

/// A relay for one TCP connection (one worker shard).
pub struct TcpRelay {
    pub addr: SocketAddr,
    counts: Arc<Counts>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

impl TcpRelay {
    pub fn start(target: SocketAddr) -> io::Result<TcpRelay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let counts = Arc::new(Counts::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (c, s) = (Arc::clone(&counts), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let (client, _) = listener.accept()?;
            if s.load(Ordering::SeqCst) {
                return Ok(());
            }
            client.set_nodelay(true)?;
            let server = TcpStream::connect(target)?;
            server.set_nodelay(true)?;
            for h in bridge(client, server, &c)? {
                let _ = h.join();
            }
            Ok(())
        });
        Ok(TcpRelay {
            addr,
            counts,
            stop,
            thread,
        })
    }

    /// Waits for the relayed connection to end (unblocking the accept if
    /// no client ever came) and returns its traffic.
    pub fn finish(self) -> Result<Traffic, String> {
        if self.counts.connections.load(Ordering::Relaxed) == 0 {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
        }
        match self.thread.join() {
            Ok(Ok(())) => Ok(totals(&self.counts)),
            Ok(Err(e)) => Err(format!("tcp relay: {e}")),
            Err(_) => Err("tcp relay thread panicked".into()),
        }
    }
}

/// A relay in front of a Unix-socket daemon, for any number of clients.
pub struct UnixRelay {
    pub path: PathBuf,
    counts: Arc<Counts>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl UnixRelay {
    pub fn start(path: &Path, target: &Path) -> io::Result<UnixRelay> {
        let listener = UnixListener::bind(path)?;
        let counts = Arc::new(Counts::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (c, s, target) = (Arc::clone(&counts), Arc::clone(&stop), target.to_path_buf());
        let thread = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            for client in listener.incoming() {
                if s.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { break };
                match UnixStream::connect(&target).and_then(|server| bridge(client, server, &c)) {
                    Ok(hs) => pumps.extend(hs),
                    Err(e) => eprintln!("perfbench: unix relay: {e}"),
                }
            }
            for h in pumps {
                let _ = h.join();
            }
        });
        Ok(UnixRelay {
            path: path.to_path_buf(),
            counts,
            stop,
            thread,
        })
    }

    /// Stops accepting, waits for every relayed connection to end, and
    /// returns the traffic. Clients must have disconnected first.
    pub fn finish(self) -> Traffic {
        self.stop.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.path);
        let _ = self.thread.join();
        let _ = std::fs::remove_file(&self.path);
        totals(&self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_relay_counts_both_directions() {
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = server.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = server.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(b"hi").unwrap();
        });
        let relay = TcpRelay::start(target).unwrap();
        {
            let mut c = TcpStream::connect(relay.addr).unwrap();
            c.write_all(b"hello").unwrap();
            let mut buf = [0u8; 2];
            c.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hi");
        }
        echo.join().unwrap();
        let t = relay.finish().unwrap();
        assert_eq!((t.up, t.down), (5, 2));
    }

    #[test]
    fn unused_tcp_relay_finishes() {
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let relay = TcpRelay::start(server.local_addr().unwrap()).unwrap();
        let t = relay.finish().unwrap();
        assert_eq!(t.up + t.down, 0);
    }
}
