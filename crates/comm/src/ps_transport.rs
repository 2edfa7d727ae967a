//! The (sharded) parameter server, over any [`Transport`].
//!
//! Downpour and EAMSGD aggregate through a central server: learners *push*
//! deltas asynchronously and *pull* fresh parameters. The paper's testbed
//! runs the sharded server on host CPUs while learners live on GPUs; here
//! a shard is a rank of the same world as the learners, serving its slice
//! of the parameter vector through plain transport sends and receives — so
//! one server runs unchanged on threads, over sockets, under the mock and
//! under the model checker.
//!
//! ## World layout and protocol
//!
//! A PS world of `p + s` ranks: learners are ranks `0..p`, shards are ranks
//! `p..p+s`. Shard `k` owns segment [`PsLayout::segment`]`(k)` — the
//! [`chunk_bounds`] split.
//!
//! Every learner→shard frame travels under the one tag `TAG_REQ` and is
//! self-describing — word 0 is a bit-cast opcode, never inferred from the
//! frame's length — so one `(learner, TAG_REQ)` queue carries a learner's
//! traffic to a shard in program order:
//!
//! * `[ADD, id_lo, id_hi, delta…]` — the shard adds `delta` to its segment
//!   (asynchronously: arrival order across learners is the schedule) and
//!   folds the update id into its `ShardStamp`;
//! * `[PULL, seq]` — the shard replies `[clock, stamp, segment…]` under
//!   `TAG_REPLY_BASE + seq`, so a late reply to a timed-out attempt can
//!   never match a retry;
//! * `[CLAIM, seq]` — shard 0 only: replies its update clock and advances
//!   it. The clock counts updates *claimed*, which is what staleness is
//!   measured against ([`PsTransportClient::claim`]);
//! * `[DONE]` — the learner is finished; a shard returns once every
//!   learner has said so. A client says it when dropped.
//!
//! Shards answer pulls independently, so under concurrent adds an
//! assembled vector may mix old and new shard states — the *inconsistency
//! of sharded servers* the paper calls out in §I/§III.
//! [`PsTransportClient::pull_snapshot`] retries the same pull until every
//! shard's stamp agrees, which makes the concatenation a
//! transaction-consistent cut.
//!
//! A frame that is not one of the above (unknown opcode, wrong length for
//! the segment) is a typed [`PsTransportError::Malformed`] naming the
//! sender, never a panic and never a partial update.

use std::time::Duration;

use crate::collectives::chunk_bounds;
use crate::transport::Transport;
use crate::world::CommError;

/// Base of the PS tag space (collective tags stay far below 2³²).
const PS_TAG_BASE: u64 = 1 << 32;
/// Every learner→shard frame.
const TAG_REQ: u64 = PS_TAG_BASE | 1;
/// Replies travel at `TAG_REPLY_BASE + seq` (a second disjoint range).
const TAG_REPLY_BASE: u64 = 2 << 32;

const OP_ADD: u32 = 1;
const OP_PULL: u32 = 2;
const OP_CLAIM: u32 = 3;
const OP_DONE: u32 = 4;

/// Words a pull reply carries ahead of the segment: the shard's update
/// clock and the three `ShardStamp` fields, two words each.
const REPLY_HEADER: usize = 8;

/// Typed failure of a parameter-server operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PsTransportError {
    /// The shard's endpoint is gone — its process or thread died.
    ShardDown {
        /// World rank of the dead shard.
        shard: usize,
    },
    /// The shard did not answer before the deadline.
    Timeout {
        /// World rank of the silent shard.
        shard: usize,
    },
    /// [`PsTransportClient::pull_snapshot`] could not observe a consistent
    /// cut within its retry budget (sustained concurrent pushes).
    SnapshotContention {
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// A received frame is not a frame of the protocol.
    Malformed {
        /// World rank that sent it.
        from: usize,
        /// Its length in words.
        len: usize,
    },
    /// Any other wire failure.
    Comm(CommError),
}

impl std::fmt::Display for PsTransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsTransportError::ShardDown { shard } => write!(f, "PS shard rank {shard} is gone"),
            PsTransportError::Timeout { shard } => {
                write!(f, "PS shard rank {shard} missed the deadline")
            }
            PsTransportError::SnapshotContention { attempts } => {
                write!(f, "no consistent snapshot after {attempts} attempts")
            }
            PsTransportError::Malformed { from, len } => {
                write!(f, "malformed {len}-word PS frame from rank {from}")
            }
            PsTransportError::Comm(e) => write!(f, "PS wire failure: {e}"),
        }
    }
}

impl std::error::Error for PsTransportError {}

/// A failed send to a shard.
fn send_failed(e: CommError) -> PsTransportError {
    match e {
        CommError::PeerGone { peer } => PsTransportError::ShardDown { shard: peer },
        other => PsTransportError::Comm(other),
    }
}

/// How a `p`-learner, `s`-shard PS world is laid out over `p + s` ranks.
#[derive(Clone, Copy, Debug)]
pub struct PsLayout {
    /// Learner count (learners are ranks `0..p`).
    pub p: usize,
    /// Shard count (shards are ranks `p..p+s`).
    pub shards: usize,
    /// Full parameter dimension.
    pub dim: usize,
}

impl PsLayout {
    /// World rank of shard `k`.
    pub fn shard_rank(&self, k: usize) -> usize {
        self.p + k
    }

    /// `(lo, hi)` segment bounds of shard `k`.
    pub fn segment(&self, k: usize) -> (usize, usize) {
        chunk_bounds(self.dim, self.shards)[k]
    }
}

/// Order-independent digest of the set of updates a shard has applied. Two
/// shards with equal stamps have applied the same adds (the update ids are
/// mixed through splitmix64, so distinct sets colliding in all three
/// fields at once is vanishingly unlikely), which makes the concatenation
/// of their segments a transaction-consistent cut.
#[derive(Default)]
struct ShardStamp {
    /// Updates applied.
    count: u64,
    /// XOR of mixed update ids.
    xor: u64,
    /// Wrapping sum of mixed update ids.
    sum: u64,
}

impl ShardStamp {
    fn apply(&mut self, id: u64) {
        let h = mix64(id);
        self.count += 1;
        self.xor ^= h;
        self.sum = self.sum.wrapping_add(h);
    }
}

/// splitmix64 finalizer, used to spread update ids across the stamp fields.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A control word: an integer bit-cast into the `f32` payload (moved, never
/// computed on, so every bit survives every transport).
fn word(x: u32) -> f32 {
    f32::from_bits(x)
}

fn push_u64(frame: &mut Vec<f32>, x: u64) {
    frame.push(word(x as u32));
    frame.push(word((x >> 32) as u32));
}

/// The `u64` in the first two words of `words` (callers check the length).
fn read_u64(words: &[f32]) -> u64 {
    u64::from(words[0].to_bits()) | (u64::from(words[1].to_bits()) << 32)
}

/// Run one PS shard to completion on this rank (a rank `≥ layout.p`):
/// serve its segment of `initial`, the full starting parameters, until
/// every learner has sent `DONE`, and return the segment as they left it.
pub fn serve_shard<T: Transport>(
    comm: &mut T,
    layout: &PsLayout,
    initial: &[f32],
) -> Result<Vec<f32>, PsTransportError> {
    let (lo, hi) = layout.segment(comm.rank() - layout.p);
    let mut segment = initial[lo..hi].to_vec();
    serve_segment(comm, layout, &mut segment)?;
    Ok(segment)
}

/// The serve loop over `segment`, updated in place. On an error it holds
/// every update applied before it and nothing of the offending frame.
fn serve_segment<T: Transport>(
    comm: &mut T,
    layout: &PsLayout,
    segment: &mut [f32],
) -> Result<(), PsTransportError> {
    let inbox: Vec<(usize, u64)> = (0..layout.p).map(|l| (l, TAG_REQ)).collect();
    let mut done = vec![false; layout.p];
    let mut stamp = ShardStamp::default();
    let mut clock = 0u64;
    while done.contains(&false) {
        let (from, frame) = comm.recv_any(&inbox).map_err(PsTransportError::Comm)?;
        let malformed = PsTransportError::Malformed {
            from,
            len: frame.len(),
        };
        let (op, body) = frame.split_first().ok_or(malformed)?;
        let reply = match (op.to_bits(), body.len()) {
            (OP_ADD, n) if n == 2 + segment.len() => {
                stamp.apply(read_u64(body));
                for (x, d) in segment.iter_mut().zip(&body[2..]) {
                    *x += d;
                }
                continue;
            }
            (OP_DONE, 0) => {
                done[from] = true;
                continue;
            }
            (OP_PULL, 1) => {
                let mut out = Vec::with_capacity(REPLY_HEADER + segment.len());
                for x in [clock, stamp.count, stamp.xor, stamp.sum] {
                    push_u64(&mut out, x);
                }
                out.extend_from_slice(segment);
                out
            }
            (OP_CLAIM, 1) => {
                let mut out = Vec::with_capacity(2);
                push_u64(&mut out, clock);
                clock += 1;
                out
            }
            _ => return Err(malformed),
        };
        let tag = TAG_REPLY_BASE + u64::from(body[0].to_bits());
        match comm.send(from, tag, reply) {
            Ok(()) => {}
            // A learner that hung up without its DONE has still left.
            Err(CommError::PeerGone { .. }) => done[from] = true,
            Err(e) => return Err(PsTransportError::Comm(e)),
        }
    }
    Ok(())
}

/// A learner's endpoint to the server: splits adds across shards,
/// assembles pulls. Dropping it tells every shard this learner is done.
pub struct PsTransportClient<T: Transport> {
    comm: T,
    layout: PsLayout,
    /// Reply-tag sequence of the next round trip.
    seq: u32,
    /// Adds issued, the low bits of this learner's update ids.
    adds: u64,
    /// Shard 0's update clock as of the last pull.
    seen: u64,
}

impl<T: Transport> PsTransportClient<T> {
    /// Wrap a learner endpoint.
    ///
    /// # Panics
    /// Panics unless `comm.rank() < layout.p`.
    pub fn new(comm: T, layout: PsLayout) -> Self {
        // lint:allow(comm-unwrap): the caller's own rank and layout.
        assert!(comm.rank() < layout.p, "client must be a learner rank");
        PsTransportClient {
            comm,
            layout,
            seq: 0,
            adds: 0,
            seen: 0,
        }
    }

    fn next_seq(&mut self) -> u32 {
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        seq
    }

    fn request(&mut self, k: usize, frame: Vec<f32>) -> Result<(), PsTransportError> {
        let shard = self.layout.shard_rank(k);
        self.comm.send(shard, TAG_REQ, frame).map_err(send_failed)
    }

    /// Shard `k`'s reply to round trip `seq`, `words` long.
    fn reply(
        &mut self,
        k: usize,
        seq: u32,
        words: usize,
        timeout: Duration,
    ) -> Result<Vec<f32>, PsTransportError> {
        let shard = self.layout.shard_rank(k);
        let tag = TAG_REPLY_BASE + u64::from(seq);
        match self.comm.recv_deadline(shard, tag, timeout) {
            Ok(reply) if reply.len() == words => Ok(reply),
            Ok(reply) => Err(PsTransportError::Malformed {
                from: shard,
                len: reply.len(),
            }),
            Err(CommError::Timeout { .. }) => Err(PsTransportError::Timeout { shard }),
            Err(other) => Err(PsTransportError::Comm(other)),
        }
    }

    /// Asynchronous `x ← x + delta` across all shards.
    ///
    /// # Panics
    /// Panics if `delta` is not full-dimension.
    pub fn add(&mut self, delta: &[f32]) -> Result<(), PsTransportError> {
        // lint:allow(comm-unwrap): the caller's own update, not wire input.
        assert_eq!(delta.len(), self.layout.dim, "delta dimension mismatch");
        // Unique across the world: no two learners share the high bits.
        let id = ((self.comm.rank() as u64) << 40) | self.adds;
        self.adds += 1;
        for k in 0..self.layout.shards {
            let (lo, hi) = self.layout.segment(k);
            let mut frame = Vec::with_capacity(3 + hi - lo);
            frame.push(word(OP_ADD));
            push_u64(&mut frame, id);
            frame.extend_from_slice(&delta[lo..hi]);
            self.request(k, frame)?;
        }
        Ok(())
    }

    /// Downpour-style gradient push: `x ← x − γ·g` applied server-side.
    pub fn push_gradient(&mut self, gamma: f32, grad: &[f32]) -> Result<(), PsTransportError> {
        let delta: Vec<f32> = grad.iter().map(|g| -gamma * g).collect();
        self.add(&delta)
    }

    /// One pull: the assembled vector, and whether every shard had applied
    /// the same updates when it answered.
    fn pull_stamped(&mut self, timeout: Duration) -> Result<(Vec<f32>, bool), PsTransportError> {
        let seq = self.next_seq();
        // Fan out to every shard first, then collect — one round-trip
        // latency regardless of shard count.
        for k in 0..self.layout.shards {
            self.request(k, vec![word(OP_PULL), word(seq)])?;
        }
        let mut out = vec![0.0f32; self.layout.dim];
        let mut stamps = Vec::with_capacity(self.layout.shards);
        for k in 0..self.layout.shards {
            let (lo, hi) = self.layout.segment(k);
            let reply = self.reply(k, seq, REPLY_HEADER + hi - lo, timeout)?;
            if k == 0 {
                self.seen = read_u64(&reply);
            }
            stamps.push([2, 4, 6].map(|at| read_u64(&reply[at..])));
            out[lo..hi].copy_from_slice(&reply[REPLY_HEADER..]);
        }
        let uniform = stamps.windows(2).all(|w| w[0] == w[1]);
        Ok((out, uniform))
    }

    /// Round-trip fetch of the full parameter vector, each shard's reply
    /// bounded by `timeout`.
    pub fn pull(&mut self, timeout: Duration) -> Result<Vec<f32>, PsTransportError> {
        self.pull_stamped(timeout).map(|(x, _)| x)
    }

    /// [`pull`](Self::pull) under a bounded retry ladder — the Downpour
    /// fault-tolerance path. On a timeout the whole pull is retried after a
    /// backoff that doubles per attempt (`backoff`, `2·backoff`, …), up to
    /// `retries` retries; any other failure (a dead shard cannot be retried
    /// back to life) surfaces at once. The deadline changes *when* a
    /// failure surfaces, never *what* a successful pull carries.
    pub fn pull_retry(
        &mut self,
        timeout: Duration,
        retries: usize,
        backoff: Duration,
    ) -> Result<Vec<f32>, PsTransportError> {
        let mut wait = backoff;
        for _ in 0..retries {
            match self.pull(timeout) {
                Err(PsTransportError::Timeout { .. }) => {}
                settled => return settled,
            }
            if !wait.is_zero() {
                std::thread::sleep(wait);
                wait *= 2;
            }
        }
        self.pull(timeout)
    }

    /// Transaction-consistent fetch across shards: the pull is repeated (up
    /// to `max_retries` extra rounds) until every shard reports the same
    /// update stamp — the fix for the cross-shard torn read a plain
    /// [`pull`](Self::pull) permits.
    pub fn pull_snapshot(
        &mut self,
        timeout: Duration,
        max_retries: usize,
    ) -> Result<Vec<f32>, PsTransportError> {
        let attempts = max_retries + 1;
        for attempt in 0..attempts {
            // A brief, growing pause lets in-flight adds drain to every
            // shard.
            match attempt {
                0 => {}
                1..=3 => std::thread::yield_now(),
                _ => std::thread::sleep(Duration::from_micros(50 * attempt as u64)),
            }
            if let (x, true) = self.pull_stamped(timeout)? {
                return Ok(x);
            }
        }
        Err(PsTransportError::SnapshotContention { attempts })
    }

    /// Claim the next update slot on the server's clock (shard 0) and
    /// return this update's staleness τ: how many updates — from any
    /// learner, this one included — were claimed since this learner's last
    /// pull was served. A round trip, because the clock is the server's:
    /// τ means the same thing on threads and across processes.
    pub fn claim(&mut self, timeout: Duration) -> Result<u64, PsTransportError> {
        let seq = self.next_seq();
        self.request(0, vec![word(OP_CLAIM), word(seq)])?;
        let clock = read_u64(&self.reply(0, seq, 2, timeout)?);
        Ok(clock.saturating_sub(self.seen))
    }
}

impl<T: Transport> Drop for PsTransportClient<T> {
    /// Best effort on every exit path, unwinding included: a shard that is
    /// already gone needs no goodbye.
    fn drop(&mut self) {
        for k in 0..self.layout.shards {
            let _ = self.request(k, vec![word(OP_DONE)]);
        }
    }
}

/// A whole PS world in a box, for tests and benches (the production
/// harness is `sasgd-core`'s): one scoped thread per endpoint (rank order,
/// `layout.p + layout.shards` of them), the shards serving `initial`'s
/// segments, every learner rank running `learner` on its client. Returns
/// the learners' results in rank order and the server's final parameters.
///
/// # Panics
/// Panics if a shard fails or any rank panicked.
pub fn run_world<T: Transport, R: Send>(
    endpoints: Vec<T>,
    layout: PsLayout,
    initial: &[f32],
    learner: impl Fn(PsTransportClient<T>) -> R + Sync,
) -> (Vec<R>, Vec<f32>) {
    fn join<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
        handle
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    }
    let (learner, mut ranks) = (&learner, endpoints.into_iter());
    std::thread::scope(|scope| {
        let learners: Vec<_> = ranks
            .by_ref()
            .take(layout.p)
            .map(|comm| scope.spawn(move || learner(PsTransportClient::new(comm, layout))))
            .collect();
        let shards: Vec<_> = ranks
            .map(|mut comm| {
                // lint:allow(comm-unwrap): a test harness — a shard that
                // fails must fail the test.
                scope.spawn(move || serve_shard(&mut comm, &layout, initial).expect("shard serves"))
            })
            .collect();
        let results = learners.into_iter().map(join).collect();
        (results, shards.into_iter().flat_map(join).collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::mock_world;
    use crate::world::CommWorld;

    const PULL: Duration = Duration::from_secs(5);

    fn layout(p: usize, shards: usize, dim: usize) -> PsLayout {
        PsLayout { p, shards, dim }
    }

    /// `run_world` over the in-process transport.
    fn inproc<R: Send>(
        layout: PsLayout,
        initial: &[f32],
        learner: impl Fn(PsTransportClient<crate::Communicator>) -> R + Sync,
    ) -> (Vec<R>, Vec<f32>) {
        let comms = CommWorld::new(layout.p + layout.shards).communicators();
        run_world(comms, layout, initial, learner)
    }

    #[test]
    fn push_pull_single_shard() {
        let (pulled, end) = inproc(layout(1, 1, 3), &[1.0, 2.0, 3.0], |mut c| {
            c.push_gradient(0.5, &[2.0, 0.0, -2.0]).expect("push");
            c.pull(PULL).expect("pull")
        });
        assert_eq!(pulled, vec![vec![0.0, 2.0, 4.0]]);
        assert_eq!(end, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn sharded_equals_unsharded_for_serial_ops() {
        let init: Vec<f32> = (0..10).map(|x| x as f32).collect();
        let delta: Vec<f32> = (0..10).map(|x| (x as f32) * 0.1).collect();
        let run = |shards| {
            inproc(layout(1, shards, 10), &init, |mut c| {
                c.add(&delta).expect("add");
                c.pull(PULL).expect("pull")
            })
        };
        assert_eq!(run(1), run(3));
    }

    /// Concurrent adds and pulls from two learners over two shards, on the
    /// in-process world and unchanged on the mock: the final server state
    /// is the sum of every delta.
    #[test]
    fn adds_and_pulls_over_inproc_and_mock_worlds() {
        // Both clients pull before either adds: the initial pull sees zeros.
        static PULLED: std::sync::Barrier = std::sync::Barrier::new(2);
        fn chatter<T: Transport>(mut client: PsTransportClient<T>) {
            assert_eq!(client.pull(PULL).expect("initial pull"), vec![0.0; 7]);
            PULLED.wait();
            for step in 0..3 {
                let delta: Vec<f32> = (0..7)
                    .map(|j| (client.comm.rank() * 100 + step * 10 + j) as f32)
                    .collect();
                client.add(&delta).expect("add");
                let _ = client.pull(PULL).expect("pull");
            }
        }
        let lay = layout(2, 2, 7);
        let expect: Vec<f32> = (0..7usize)
            .map(|j| {
                (0..2usize)
                    .flat_map(|r| (0..3usize).map(move |st| (r * 100 + st * 10 + j) as f32))
                    .sum()
            })
            .collect();
        assert_eq!(inproc(lay, &[0.0; 7], chatter).1, expect);
        assert_eq!(run_world(mock_world(4), lay, &[0.0; 7], chatter).1, expect);
    }

    #[test]
    fn concurrent_pushes_all_apply() {
        // Addition commutes, so any interleaving yields the same sum.
        let m = 100usize;
        let (_, end) = inproc(layout(8, 4, m), &vec![0.0; m], |mut c| {
            for _ in 0..10 {
                c.add(&vec![1.0; m]).expect("add");
            }
        });
        assert!(end.iter().all(|&v| v == 80.0));
    }

    #[test]
    fn pull_while_pushing_is_live() {
        let m = 32usize;
        inproc(layout(2, 2, m), &vec![0.0; m], |mut c| {
            if c.comm.rank() == 0 {
                for _ in 0..100 {
                    c.add(&vec![0.25; m]).expect("add");
                }
            } else {
                for _ in 0..20 {
                    // Values always multiples of 0.25 within [0, 25].
                    for v in c.pull(PULL).expect("pull") {
                        assert!((0.0..=25.0).contains(&v));
                    }
                }
            }
        });
    }

    /// Every frame is counted by the world's `Traffic`, control words
    /// included: per (learner, shard) pair an add carries 3 header words, a
    /// pull 2 request + 8 reply-header words, the goodbye 1.
    #[test]
    fn traffic_counts_payload_and_control_words() {
        let mut world = CommWorld::new(3);
        let traffic = world.traffic();
        let lay = layout(1, 2, 10);
        run_world(world.communicators(), lay, &[0.0; 10], |mut c| {
            c.add(&[1.0; 10]).expect("add");
            let _ = c.pull(PULL).expect("pull");
        });
        assert_eq!(traffic.elements_sent(), 2 * 10 + (3 + 2 + 8 + 1) * 2);
        assert_eq!(traffic.messages_sent(), 4 * 2);
    }

    /// The cases a length-sniffing shard got wrong: no parameters at all,
    /// and one-element segments, where an add is as short as a control
    /// word and a delta may carry any bit pattern — `u32::MAX` included.
    #[test]
    fn empty_and_single_element_segments_are_ok() {
        let (pulled, end) = inproc(layout(1, 1, 0), &[], |mut c| {
            c.add(&[]).expect("add");
            c.pull(PULL).expect("pull")
        });
        assert_eq!((pulled, end), (vec![vec![]], vec![]));

        let nan = f32::from_bits(u32::MAX);
        let (pulled, end) = inproc(layout(1, 2, 2), &[1.0, 2.0], |mut c| {
            c.add(&[0.5, 0.25]).expect("add");
            let x = c.pull(PULL).expect("an add is not a pull request");
            c.add(&[nan, 1.0]).expect("add");
            (x, c.pull(PULL).expect("a u32::MAX delta retires nobody"))
        });
        let (first, second) = &pulled[0];
        assert_eq!(first, &vec![1.5, 2.25]);
        assert!(second[0].is_nan() && second[1] == 3.25);
        assert!(end[0].is_nan() && end[1] == 3.25);
    }

    #[test]
    #[should_panic(expected = "delta dimension mismatch")]
    fn client_rejects_a_wrong_dimension_delta() {
        let learner = mock_world(2).swap_remove(0);
        let _ = PsTransportClient::new(learner, layout(1, 1, 4)).add(&[1.0]);
    }

    /// A short, an over-long, an unknown and an empty frame from the wire
    /// are typed errors naming the sender; none of them touches the
    /// segment.
    #[test]
    fn malformed_frames_are_typed_errors_and_leave_the_segment_intact() {
        let lay = layout(2, 1, 4);
        let add = |n: usize| {
            let mut f = vec![word(OP_ADD), 0.0, 0.0];
            f.extend(vec![1.0; n]);
            f
        };
        for (frame, len) in [
            (add(3), 6),
            (add(5), 8),
            (vec![word(9), 1.0], 2),
            (vec![], 0),
        ] {
            let mut world = mock_world(3);
            let mut shard = world.pop().expect("shard");
            let mut peer = world.pop().expect("learner 1");
            peer.send(2, TAG_REQ, add(4)).expect("good add");
            peer.send(2, TAG_REQ, frame).expect("bad frame");
            let mut segment = vec![1.0f32; 4];
            assert_eq!(
                serve_segment(&mut shard, &lay, &mut segment),
                Err(PsTransportError::Malformed { from: 1, len })
            );
            assert_eq!(segment, vec![2.0; 4], "only the well-formed add applied");
        }
    }

    #[test]
    fn snapshot_is_uniform_under_concurrent_pushes() {
        // Every add is a constant full-vector increment, so any
        // *consistent* cut is a uniform vector; a torn cut mixes shard
        // states and is non-uniform. pull_snapshot must only return
        // uniform vectors.
        let m = 64usize;
        inproc(layout(2, 4, m), &vec![0.0; m], |mut c| {
            if c.comm.rank() == 0 {
                for _ in 0..200 {
                    c.add(&vec![1.0; m]).expect("add");
                }
            } else {
                for _ in 0..50 {
                    let x = c.pull_snapshot(PULL, 10_000).expect("snapshot");
                    assert!(x.iter().all(|&v| v == x[0]), "torn snapshot: {:?}", &x[..8]);
                    assert!((0.0..=200.0).contains(&x[0]));
                }
            }
        });
    }

    #[test]
    fn snapshot_matches_pull_when_quiescent() {
        inproc(layout(1, 3, 9), &[1.0; 9], |mut c| {
            c.add(&[0.5; 9]).expect("add");
            let snapshot = c.pull_snapshot(PULL, 4).expect("snapshot");
            assert_eq!(snapshot, c.pull(PULL).expect("pull"));
            assert_eq!(snapshot, vec![1.5; 9]);
        });
    }

    /// The clock lives in shard 0 and counts claims: τ is the number of
    /// updates claimed, by anyone, since this client's last pull was served.
    #[test]
    fn claim_measures_updates_since_the_last_pull() {
        let lay = layout(2, 2, 4);
        let mut learners = CommWorld::new(4).communicators();
        let shards = learners.split_off(2);
        std::thread::scope(|scope| {
            for mut comm in shards {
                scope.spawn(move || serve_shard(&mut comm, &lay, &[0.0; 4]).expect("serve"));
            }
            // One thread drives both clients, so the order is the test's.
            let mut b = PsTransportClient::new(learners.pop().expect("learner 1"), lay);
            let mut a = PsTransportClient::new(learners.pop().expect("learner 0"), lay);
            for c in [&mut a, &mut b] {
                c.pull(PULL).expect("initial pull");
            }
            assert_eq!(a.claim(PULL), Ok(0));
            assert_eq!(b.claim(PULL), Ok(1), "a's claim landed since b pulled");
            a.pull(PULL).expect("pull");
            assert_eq!(
                a.claim(PULL),
                Ok(0),
                "own claims before the pull do not count"
            );
            assert_eq!(b.claim(PULL), Ok(3));
        });
    }

    #[test]
    fn pull_retry_succeeds_on_live_server() {
        let (pulled, _) = inproc(layout(1, 2, 6), &[2.0; 6], |mut c| {
            c.pull_retry(Duration::from_millis(500), 2, Duration::from_millis(1))
        });
        assert_eq!(pulled, vec![Ok(vec![2.0; 6])]);
    }

    /// A live but silent shard costs exactly `retries + 1` attempts, each
    /// under a fresh reply tag, then surfaces as a typed timeout.
    #[test]
    fn silent_shard_times_out_after_the_whole_ladder() {
        let mut world = mock_world(2);
        let mut shard = world.pop().expect("shard");
        let mut client = PsTransportClient::new(world.pop().expect("learner"), layout(1, 1, 3));
        assert_eq!(
            client.pull_retry(Duration::from_millis(5), 2, Duration::from_millis(1)),
            Err(PsTransportError::Timeout { shard: 1 })
        );
        let seqs: Vec<u32> = (0..3)
            .map(|_| shard.recv(0, TAG_REQ).expect("attempt")[1].to_bits())
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn dead_shard_is_typed_error() {
        let mut world = mock_world(3);
        world.truncate(1); // both shards die before serving anything
        let mut c = PsTransportClient::new(world.pop().expect("learner"), layout(1, 2, 4));
        let down = Some(PsTransportError::ShardDown { shard: 1 });
        assert_eq!(c.add(&[1.0; 4]).err(), down);
        assert_eq!(c.claim(PULL).err(), down);
        assert_eq!(c.pull_retry(PULL, 1, Duration::ZERO).err(), down);
        assert_eq!(c.pull_snapshot(PULL, 1).err(), down);
    }
}
