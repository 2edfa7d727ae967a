//! TCP socket transport: the multi-process implementation of
//! [`Transport`].
//!
//! Ranks live in separate OS processes and exchange [`crate::protocol`]
//! frames over a full mesh of loopback (or LAN) TCP connections. The
//! rendezvous is deterministic: every rank binds its own well-known
//! address, dials every *lower* rank (retrying until the peer's listener
//! is up), and accepts one connection from every *higher* rank; the first
//! frame on each connection is a hello carrying the dialer's rank. One
//! full-duplex stream per peer pair results, exactly `p·(p−1)/2` sockets.
//!
//! Each endpoint runs one reader thread per peer (raw `thread::spawn` is
//! sanctioned for `crates/comm/` by the analyzer's spawn allow-list — this
//! *is* the communication layer). Readers decode frames and forward them
//! into a single crossbeam channel, which makes the receive path identical
//! in shape to [`crate::world::Communicator`]: the endpoint drains the
//! channel, parking non-matching frames in an ordered pending map
//! (`BTreeMap`, per the `map-iter` lint). A reader that observes EOF or an
//! I/O error marks its peer gone and exits; subsequent sends to that peer
//! fail with [`CommError::PeerGone`]. Unlike the in-process channel world,
//! hangup detection rides the wire, so there is a window where a send to a
//! just-crashed peer still buffers successfully — callers probing for a
//! dead peer retry until the error surfaces (the conformance suite does).
//! The armed tree walk ([`crate::tree`]) reroutes a partial only on a
//! send that fails, so over sockets a partial sent into that window is
//! lost and its sender is evicted along with the dead peer.
//!
//! Dropping the endpoint shuts every stream down both ways, which is what
//! the surviving peers' readers observe as the hangup.

// Rendezvous retries and receive deadlines are wall-clock by nature (same
// sanction as world.rs); the numeric path never reads these clocks. This
// file is on the analyzer's `wall-clock` allow-list for that reason.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::protocol::{read_frame, write_frame, Frame, HELLO_TAG};
use crate::transport::Transport;
use crate::world::{CommError, Traffic};

/// How long a dialing rank keeps retrying a peer whose listener is not up
/// yet, and how long an accepting rank waits for its higher-ranked peers.
pub const DEFAULT_RENDEZVOUS: Duration = Duration::from_secs(30);

/// Polling quantum for connect retries and nonblocking accepts.
const POLL: Duration = Duration::from_millis(5);

/// A rank endpoint over TCP: implements [`Transport`] for rank worlds
/// whose members are separate OS processes.
pub struct SocketTransport {
    rank: usize,
    size: usize,
    /// One write half per peer (`None` at our own index).
    writers: Vec<Option<TcpStream>>,
    /// Frames forwarded by the reader threads.
    rx: Receiver<Frame>,
    /// Keeps the channel open while this endpoint lives, so a blocking
    /// receive blocks (matching the in-process world) instead of
    /// disconnecting when every reader has exited.
    _self_tx: Sender<Frame>,
    /// Out-of-order arrivals parked until a matching receive (ordered map:
    /// `map-iter` lint, same rationale as `world.rs`).
    pending: BTreeMap<(usize, u64), VecDeque<Vec<f32>>>,
    /// Peers whose reader observed hangup; sends to them fail fast.
    gone: Arc<Vec<AtomicBool>>,
    op_counter: u64,
    default_deadline: Option<Duration>,
    traffic: Arc<Traffic>,
    readers: Vec<JoinHandle<()>>,
}

/// Loopback addresses for a `p`-rank world: `127.0.0.1:base+rank`.
pub fn loopback_addrs(p: usize, base_port: u16) -> Vec<SocketAddr> {
    (0..p)
        .map(|r| {
            SocketAddr::from((
                [127, 0, 0, 1],
                base_port.checked_add(r as u16).expect("port range"),
            ))
        })
        .collect()
}

impl SocketTransport {
    /// Join the world as `rank`: bind `addrs[rank]`, then rendezvous with
    /// every peer (see module docs). Blocks until the full mesh is up or
    /// `rendezvous` expires.
    pub fn connect(rank: usize, addrs: &[SocketAddr], rendezvous: Duration) -> io::Result<Self> {
        let listener = TcpListener::bind(addrs[rank])?;
        Self::with_listener(rank, listener, addrs, rendezvous)
    }

    /// [`SocketTransport::connect`] with a pre-bound listener (lets a
    /// harness bind every rank on port 0 first and distribute the real
    /// addresses, eliminating port races in tests).
    pub fn with_listener(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        rendezvous: Duration,
    ) -> io::Result<Self> {
        let size = addrs.len();
        // lint:allow(comm-unwrap): the caller's own rank and address list.
        assert!(rank < size, "rank {rank} outside world of {size}");
        let deadline = Instant::now() + rendezvous;
        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();

        // Dial every lower rank, announcing ourselves with a hello frame.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut stream = dial(addrs[peer], deadline)?;
            stream.set_nodelay(true)?;
            write_frame(&mut stream, rank, HELLO_TAG, &[])?;
            *slot = Some(stream);
        }

        // Accept one connection from every higher rank; the hello frame
        // tells us who dialed (accept order is arbitrary).
        listener.set_nonblocking(true)?;
        let expected = size - rank - 1;
        let mut accepted = 0usize;
        while accepted < expected {
            let (mut stream, _) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "rank {rank}: rendezvous expired with {accepted}/{expected} \
                                 higher-ranked peers connected"
                            ),
                        ));
                    }
                    std::thread::sleep(POLL);
                    continue;
                }
                Err(e) => return Err(e),
            };
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(rendezvous))?;
            let hello = read_frame(&mut stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up before hello")
            })?;
            if hello.tag != HELLO_TAG || hello.from <= rank || hello.from >= size {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "rank {rank}: bad hello (from {}, tag {})",
                        hello.from, hello.tag
                    ),
                ));
            }
            if streams[hello.from].replace(stream).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rank {rank}: duplicate hello from rank {}", hello.from),
                ));
            }
            streams[hello.from]
                .as_ref()
                .expect("just inserted")
                .set_read_timeout(None)?;
            accepted += 1;
        }

        // Mesh complete: spawn one reader per peer.
        let (tx, rx) = unbounded();
        let gone: Arc<Vec<AtomicBool>> =
            Arc::new((0..size).map(|_| AtomicBool::new(false)).collect());
        let mut writers: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        let mut readers = Vec::new();
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else { continue };
            let read_half = stream.try_clone()?;
            writers[peer] = Some(stream);
            let tx = tx.clone();
            let gone = Arc::clone(&gone);
            readers.push(std::thread::spawn(move || {
                reader_loop(read_half, peer, &tx, &gone);
            }));
        }
        Ok(SocketTransport {
            rank,
            size,
            writers,
            rx,
            _self_tx: tx,
            pending: BTreeMap::new(),
            gone,
            op_counter: 0,
            default_deadline: None,
            traffic: Arc::new(Traffic::default()),
            readers,
        })
    }

    /// Set or clear this endpoint's default receive deadline (plain `recv`
    /// calls become deadline-bounded, mirroring
    /// [`crate::world::CommWorld::set_default_deadline`]).
    pub fn set_default_deadline(&mut self, deadline: Option<Duration>) {
        self.default_deadline = deadline;
    }

    /// This process's traffic counters (elements/messages sent by this
    /// endpoint — per-process, unlike the world-global counters of the
    /// in-process transport).
    pub fn traffic(&self) -> Arc<Traffic> {
        Arc::clone(&self.traffic)
    }

    fn recv_inner(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<Vec<f32>, CommError> {
        if let Some(q) = self.pending.get_mut(&(src, tag)) {
            if let Some(m) = q.pop_front() {
                return Ok(m);
            }
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            match self.next_frame(deadline, src, tag) {
                Ok(f) if f.from == src && f.tag == tag => return Ok(f.payload),
                Ok(f) => self
                    .pending
                    .entry((f.from, f.tag))
                    .or_default()
                    .push_back(f.payload),
                Err(e) => return Err(e),
            }
        }
    }

    fn recv_any_inner(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Option<Duration>,
    ) -> Result<(usize, Vec<f32>), CommError> {
        let &(first_src, first_tag) = candidates.first().ok_or(CommError::NoCandidates)?;
        for &(src, tag) in candidates {
            if let Some(q) = self.pending.get_mut(&(src, tag)) {
                if let Some(m) = q.pop_front() {
                    return Ok((src, m));
                }
            }
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            match self.next_frame(deadline, first_src, first_tag) {
                Ok(f) if candidates.contains(&(f.from, f.tag)) => return Ok((f.from, f.payload)),
                Ok(f) => self
                    .pending
                    .entry((f.from, f.tag))
                    .or_default()
                    .push_back(f.payload),
                Err(e) => return Err(e),
            }
        }
    }

    /// One frame off the reader channel, bounded by `deadline` when
    /// present; `(src, tag)` only label the error.
    fn next_frame(
        &self,
        deadline: Option<Instant>,
        src: usize,
        tag: u64,
    ) -> Result<Frame, CommError> {
        match deadline {
            None => self
                .rx
                .recv()
                .map_err(|_| CommError::Disconnected { src, tag }),
            Some(dl) => {
                let remaining = dl.saturating_duration_since(Instant::now());
                self.rx.recv_timeout(remaining).map_err(|e| match e {
                    RecvTimeoutError::Timeout => CommError::Timeout { src, tag },
                    RecvTimeoutError::Disconnected => CommError::Disconnected { src, tag },
                })
            }
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        self.traffic
            .elements
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.traffic.messages.fetch_add(1, Ordering::Relaxed);
        if dst == self.rank {
            // Loopback without touching the wire, like the channel world's
            // self-send. No collective uses it, but the contract allows it.
            self.pending
                .entry((dst, tag))
                .or_default()
                .push_back(payload);
            return Ok(());
        }
        if self.gone[dst].load(Ordering::Acquire) {
            return Err(CommError::PeerGone { peer: dst });
        }
        let stream = self.writers[dst].as_mut().expect("mesh stream");
        write_frame(stream, self.rank, tag, &payload).map_err(|_| {
            self.gone[dst].store(true, Ordering::Release);
            CommError::PeerGone { peer: dst }
        })
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        self.recv_inner(src, tag, self.default_deadline)
    }

    fn recv_deadline(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f32>, CommError> {
        self.recv_inner(src, tag, Some(timeout))
    }

    fn recv_any(&mut self, candidates: &[(usize, u64)]) -> Result<(usize, Vec<f32>), CommError> {
        self.recv_any_inner(candidates, self.default_deadline)
    }

    fn recv_any_deadline(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Duration,
    ) -> Result<(usize, Vec<f32>), CommError> {
        self.recv_any_inner(candidates, Some(timeout))
    }

    fn next_op(&mut self) -> u64 {
        let op = self.op_counter;
        self.op_counter += 1;
        op
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Shut every stream down both ways: peers' readers observe the
        // hangup, and our own readers (blocked on the same sockets) wake
        // with EOF so the joins below cannot hang.
        for w in self.writers.iter().flatten() {
            let _ = w.shutdown(Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Decode frames off one peer's stream until hangup, forwarding into the
/// endpoint's channel. Any read failure (EOF, reset, bad frame) marks the
/// peer gone — from this side's perspective they are indistinguishable.
fn reader_loop(
    mut stream: TcpStream,
    peer: usize,
    tx: &Sender<Frame>,
    gone: &Arc<Vec<AtomicBool>>,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                if tx.send(frame).is_err() {
                    return; // endpoint dropped mid-read; nothing to mark
                }
            }
            Ok(None) | Err(_) => {
                gone[peer].store(true, Ordering::Release);
                return;
            }
        }
    }
}

/// Dial `addr`, retrying while the peer's listener may not be up yet.
fn dial(addr: SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("rendezvous with {addr} expired: {e}"),
                    ));
                }
                std::thread::sleep(POLL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_tree;
    use std::thread;

    /// Build a `p`-rank socket world on ephemeral ports, one endpoint per
    /// test thread (the conformance suite builds its own copy of this —
    /// integration tests cannot see `cfg(test)` helpers).
    fn socket_world(p: usize) -> Vec<SocketTransport> {
        let listeners: Vec<TcpListener> = (0..p)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr"))
            .collect();
        let mut out: Vec<Option<SocketTransport>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    let addrs = addrs.clone();
                    s.spawn(move || {
                        SocketTransport::with_listener(rank, listener, &addrs, DEFAULT_RENDEZVOUS)
                            .expect("rendezvous")
                    })
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("rendezvous thread"));
            }
        });
        out.into_iter().map(|o| o.expect("endpoint")).collect()
    }

    #[test]
    fn mesh_rendezvous_and_ping_pong() {
        let mut world = socket_world(2);
        let mut c1 = world.pop().expect("rank 1");
        let mut c0 = world.pop().expect("rank 0");
        let t = thread::spawn(move || {
            let v = c1.recv(0, 7).expect("recv");
            c1.send(0, 8, v.iter().map(|x| x * 2.0).collect())
                .expect("send");
            c1
        });
        c0.send(1, 7, vec![1.0, 2.0]).expect("send");
        assert_eq!(c0.recv(1, 8).expect("recv"), vec![2.0, 4.0]);
        t.join().expect("peer thread");
    }

    #[test]
    fn allreduce_over_sockets_matches_expected_sum() {
        let world = socket_world(4);
        thread::scope(|s| {
            for mut c in world {
                s.spawn(move || {
                    let mut v = vec![c.rank() as f32 + 1.0; 3];
                    allreduce_tree(&mut c, &mut v).expect("allreduce");
                    assert_eq!(v, vec![10.0; 3]);
                });
            }
        });
    }

    #[test]
    fn traffic_counted_per_endpoint() {
        let mut world = socket_world(2);
        let mut c1 = world.pop().expect("rank 1");
        let mut c0 = world.pop().expect("rank 0");
        let traffic = c1.traffic();
        c1.send(0, 1, vec![0.0; 10]).expect("send");
        assert_eq!(c0.recv(1, 1).expect("recv"), vec![0.0; 10]);
        assert_eq!(traffic.elements_sent(), 10);
        assert_eq!(traffic.messages_sent(), 1);
    }
}
