//! Collective operations over any [`Transport`].
//!
//! The reproduction's SASGD uses [`allreduce_tree`] — the `O(m log p)`
//! binomial pattern the paper's communication analysis assumes, and the
//! one allreduce. It and [`broadcast`] are the walk of [`crate::tree`]
//! over a full membership, with the dense [`Fold`] defined here.
//!
//! Reduction order is fixed (children merge into parents in rank order), so
//! results are bitwise deterministic across runs and thread schedules.
//!
//! Every collective returns `Result<_, CommError>`: a crashed peer surfaces
//! as [`CommError::PeerGone`] at the rank adjacent to it (and, with a
//! default deadline installed, as [`CommError::Timeout`] on waiting ranks)
//! instead of panicking the whole group. The same tree over a shrinking
//! membership, armed with a deadline, heals around lost ranks
//! ([`crate::tree::allreduce_over`]).
//!
//! All collectives are generic over [`Transport`], so the same code runs
//! over in-process channels, TCP sockets, or the mock — the combine order
//! (and therefore the bitwise result) is a property of this crate, not of
//! the wire underneath.

use crate::sparse::{dense8_decode, dense8_encode};
use crate::transport::Transport;
use crate::tree::{broadcast_over, prefixed, walk, Fold, Membership, Wire};
use crate::world::CommError;

/// `got`, once it is known to be as long as the buffer it lands in.
pub(crate) fn expect_len(
    peer: usize,
    expected: usize,
    got: Vec<f32>,
) -> Result<Vec<f32>, CommError> {
    if got.len() == expected {
        Ok(got)
    } else {
        Err(CommError::MalformedLength {
            peer,
            expected,
            got: got.len(),
        })
    }
}

/// `frame[at..]`, in `frame`'s own storage.
fn payload(mut frame: Vec<f32>, at: usize) -> Vec<f32> {
    frame.drain(..at);
    frame
}

/// The dense tree's [`Fold`]: partials are `f32` buffers as long as `buf`,
/// merged by `+=`. Buffers move instead of being copied: a member gives its
/// partial away on the way up (the total overwrites `buf` anyway) and sends
/// the total down in the partial buffers its children sent it — only a
/// member with more children below than partials from above (member 1 of
/// 4) copies the total for the extras. With a `scale`, leaf partials (a
/// member's own contribution, which the compressor placed exactly on its
/// `q·scale` grid) travel as packed 8-bit frames, `2 + ⌈m/4⌉` elements.
/// An empty `buf` adopts a total of any length.
pub struct Dense<'a> {
    buf: &'a mut Vec<f32>,
    len: usize,
    scale: Option<f32>,
    spares: Vec<Vec<f32>>,
}

impl<'a> Dense<'a> {
    /// Fold `buf`; `scale`: leaf frames are 8-bit on this grid.
    pub fn new(buf: &'a mut Vec<f32>, scale: Option<f32>) -> Self {
        Dense {
            len: buf.len(),
            buf,
            scale,
            spares: Vec::new(),
        }
    }
}

impl Fold for Dense<'_> {
    fn up(&mut self, level: u32, head: &[f32]) -> Vec<f32> {
        match self.scale {
            Some(scale) if level == 0 => prefixed(head, dense8_encode(self.buf, scale)),
            _ => prefixed(head, std::mem::take(self.buf)),
        }
    }

    fn merge(&mut self, from: usize, level: u32, frame: Vec<f32>, at: usize) -> Wire {
        let part = match self.scale {
            Some(_) if level == 0 => dense8_decode(&frame[at..], self.len)?,
            _ => payload(expect_len(from, at + self.len, frame)?, at),
        };
        for (a, b) in self.buf.iter_mut().zip(&part) {
            *a += b;
        }
        self.spares.push(part);
        Ok(())
    }

    fn adopt(&mut self, from: usize, frame: Vec<f32>, at: usize) -> Wire {
        let frame = match self.len {
            0 => frame,
            len => expect_len(from, at + len, frame)?,
        };
        *self.buf = payload(frame, at);
        Ok(())
    }

    fn copy(&mut self) -> Vec<f32> {
        match self.spares.pop() {
            Some(mut spare) => {
                spare.copy_from_slice(self.buf);
                spare
            }
            None => self.buf.clone(),
        }
    }
}

/// Binomial-tree broadcast from `root`. A non-root rank's `buf` states
/// the length it expects — anything else from the parent is a
/// [`CommError::MalformedLength`] — unless it is empty, which adopts
/// whatever arrives (for frames whose length only the root knows).
pub fn broadcast<T: Transport>(
    comm: &mut T,
    root: usize,
    buf: &mut Vec<f32>,
) -> Result<(), CommError> {
    let all = Membership::new(comm.size());
    broadcast_over(comm, &all, root, &mut Dense::new(buf, None))
}

/// Allreduce (sum): reduce to rank 0, then broadcast — `2·m·log₂(p)`
/// elements through the root's subtree links, the paper's `O(m log p)`
/// collective, with buffers moved rather than copied ([`Dense`]).
///
/// On `Err`, a rank still collecting partials keeps its sum as it was (a
/// wrong-length partial is [`CommError::MalformedLength`], never a
/// truncated sum); a rank that had handed its partial to the transport is
/// left with an **empty** `buf` — the contents were forwarded and are not
/// coming back — never a truncated or partly overwritten one.
pub fn allreduce_tree<T: Transport>(comm: &mut T, buf: &mut Vec<f32>) -> Result<(), CommError> {
    let all = Membership::new(comm.size());
    walk(comm, &all, &mut Dense::new(buf, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tag;
    use crate::world::{CommWorld, Communicator};
    use std::thread;

    /// Run `f` on `p` ranks and collect per-rank results in rank order.
    fn run_world<T: Send>(p: usize, f: impl Fn(&mut Communicator) -> T + Sync) -> Vec<T> {
        let mut world = CommWorld::new(p);
        let comms = world.communicators();
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    let f = &f;
                    s.spawn(move || f(&mut c))
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("rank thread"));
            }
        });
        out.into_iter().map(|o| o.expect("result")).collect()
    }

    #[test]
    fn broadcast_all_sizes() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            let res = run_world(p, |c| {
                let mut v = if c.rank() == 0 {
                    vec![3.25, -1.0]
                } else {
                    vec![0.0; 2]
                };
                broadcast(c, 0, &mut v).expect("broadcast");
                v
            });
            for v in res {
                assert_eq!(v, vec![3.25, -1.0], "p={p}");
            }
        }
    }

    #[test]
    fn broadcast_nonzero_root() {
        let res = run_world(5, |c| {
            let mut v = if c.rank() == 3 { vec![7.0] } else { vec![0.0] };
            broadcast(c, 3, &mut v).expect("broadcast");
            v
        });
        for v in res {
            assert_eq!(v, vec![7.0]);
        }
    }

    #[test]
    fn allreduce_tree_sums() {
        for p in [1usize, 2, 3, 4, 7, 8, 16] {
            let res = run_world(p, |c| {
                let mut v = vec![c.rank() as f32 + 1.0; 4];
                allreduce_tree(c, &mut v).expect("allreduce");
                v
            });
            let expect = (p * (p + 1) / 2) as f32;
            for v in res {
                assert_eq!(v, vec![expect; 4], "p={p}");
            }
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross() {
        let res = run_world(4, |c| {
            let mut a = vec![1.0f32];
            allreduce_tree(c, &mut a).expect("allreduce");
            let mut b = vec![10.0f32];
            allreduce_tree(c, &mut b).expect("allreduce");
            allreduce_tree(c, &mut Vec::new()).expect("empty allreduce");
            (a[0], b[0])
        });
        for (a, b) in res {
            assert_eq!(a, 4.0);
            assert_eq!(b, 40.0);
        }
    }

    #[test]
    fn tree_traffic_scales_logarithmically_per_rank() {
        // Total tree-allreduce traffic = 2*(p-1)*m elements (each non-root
        // link carries m up and m down) vs PS traffic 2*p*m: same order,
        // but the *root bottleneck* differs — measured in the simnet crate.
        let m = 64usize;
        for p in [2usize, 4, 8] {
            let mut world = CommWorld::new(p);
            let traffic = world.traffic();
            let comms = world.communicators();
            thread::scope(|s| {
                for mut c in comms {
                    s.spawn(move || {
                        let mut v = vec![1.0f32; m];
                        allreduce_tree(&mut c, &mut v).expect("allreduce");
                    });
                }
            });
            assert_eq!(traffic.elements_sent(), (2 * (p - 1) * m) as u64, "p={p}");
        }
    }

    #[test]
    fn dense_frames_of_the_wrong_length_are_malformed_not_truncated() {
        use crate::mock::{mock_world, MockTransport};

        // Two mock ranks on one thread: the peer's frames are sent by hand
        // under the tags the collective is about to match, then the rank
        // under test runs the real collective.
        let pair = || {
            let mut world = mock_world(2);
            let r1 = world.pop().expect("rank 1");
            (world.pop().expect("rank 0"), r1)
        };
        let own = [1.0f32, 2.0, 3.0, 4.0];
        let want = |peer, expected, got| match got == expected {
            true => Ok(()),
            false => Err(CommError::MalformedLength {
                peer,
                expected,
                got,
            }),
        };
        type Tree = fn(&mut MockTransport, &mut Vec<f32>) -> Result<(), CommError>;
        let up: [(&str, Tree); 1] = [("allreduce_tree", |c, v| allreduce_tree(c, v))];
        // What a failed receive from the parent leaves in the buffer:
        // `broadcast` has not touched it; `allreduce_tree` gave it away on
        // the way up, and it is gone — never truncated, never a mix.
        let down: [(&str, Tree, &[f32]); 2] = [
            ("broadcast", |c, v| broadcast(c, 0, v), &own),
            ("allreduce_tree", |c, v| allreduce_tree(c, v), &[]),
        ];
        for (what, len) in [("short", 3usize), ("long", 5), ("empty", 0), ("exact", 4)] {
            let frame = vec![0.5f32; len];
            // A child's partial arriving at the root's reduce.
            for (name, collective) in up {
                let (mut r0, mut r1) = pair();
                let reduce = r1.next_op();
                r1.send(0, tag(reduce, 1), frame.clone()).expect("send");
                let mut v = own.to_vec();
                assert_eq!(
                    collective(&mut r0, &mut v),
                    want(1, 4, len),
                    "{name} / {what}"
                );
                if len != 4 {
                    assert_eq!(v, own, "{name} / {what}: partial untouched");
                }
            }
            // The parent's buffer arriving at a non-root's broadcast.
            for (name, collective, after_error) in down {
                let (mut r0, mut r1) = pair();
                let mut bcast = r0.next_op();
                if name == "allreduce_tree" {
                    bcast = r0.next_op(); // its reduce came first
                }
                r0.send(1, tag(bcast, 0), frame.clone()).expect("send");
                let mut v = own.to_vec();
                assert_eq!(
                    collective(&mut r1, &mut v),
                    want(0, 4, len),
                    "{name} / {what}"
                );
                let left = if len == 4 { &frame[..] } else { after_error };
                assert_eq!(v, left, "{name} / {what}");
            }
        }
        // An empty buffer on a non-root states no expectation.
        let (mut r0, mut r1) = pair();
        let bcast = r0.next_op();
        r0.send(1, tag(bcast, 0), vec![7.0; 3]).expect("send");
        let mut v = Vec::new();
        assert_eq!(broadcast(&mut r1, 0, &mut v), Ok(()));
        assert_eq!(v, [7.0; 3]);
    }

    #[test]
    fn collective_surfaces_peer_gone() {
        // Rank 1 crashes (endpoint dropped) before the collective; rank 0's
        // broadcast send to it must surface PeerGone, not panic.
        let mut world = CommWorld::new(2);
        let mut comms = world.communicators();
        let c1 = comms.pop().expect("rank 1");
        let mut c0 = comms.pop().expect("rank 0");
        drop(c1);
        let mut v = vec![1.0f32];
        assert_eq!(
            broadcast(&mut c0, 0, &mut v),
            Err(crate::world::CommError::PeerGone { peer: 1 })
        );
    }
}
