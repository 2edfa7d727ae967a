//! The scenario corpus: what the schedule explorer explores.
//!
//! Every production rank body is written **once**, generic over
//! [`Transport`], and instantiated twice: for [`ModelTransport`] by the
//! DPOR explorer ([`crate::dpor`]) and for the production `Communicator`
//! by the real-thread cross-check ([`crate::crosscheck`]). [`corpus`] covers the
//! shipped collectives, the tree over a partial membership and over
//! hierarchical groups, the parameter server (adds and pulls, the snapshot
//! pull across two shards, the pull-retry ladder, and three many-pusher
//! worlds with a mid-flight reader), the armed tree, dense and sparse
//! (fault-free and one-dead), and the engine ranks (SASGD,
//! DaSGD's delayed average, Downpour against its shard) — exhaustively at
//! p ≤ 4, by seeded bounded search at p = 8 and for the large PS worlds.
//! [`model_self_checks`] runs the implanted bugs — arrival-order reduce,
//! PS lost update, recv cycle — and proves each is caught by
//! happens-before machinery (with a replayable witness), not by
//! fingerprint luck.

use std::fmt::Display;
use std::time::Duration;

use sasgd_comm::collectives::{allreduce_ring, allreduce_tree, Dense};
use sasgd_comm::ps_transport::{serve_shard, PsLayout, PsTransportClient, PsTransportError};
use sasgd_comm::sparse::{sparse_allreduce_tree, SparseFold, SparseLevelProfile};
use sasgd_comm::sparse::{SparseTreeOpts, SparseVec};
use sasgd_comm::transport::Transport;
use sasgd_comm::tree::{allreduce_over, broadcast_over, Membership};
use sasgd_core::algorithms::{Algorithm, GammaP};
use sasgd_core::engine::rank::run_rank;
use sasgd_core::schedule::TSchedule;
use sasgd_core::trainer::TrainConfig;
use sasgd_data::Dataset;
use sasgd_nn::models::tiny_mlp;
use sasgd_tensor::SeedRng;

use crate::crosscheck::flat;
use crate::dpor::{explore, replay_decisions, ModelScenario, Search};
use crate::model::{parse_witness, ModelTransport, RankOutcome};

/// Every deadline a body passes. Under the model a timeout is a scheduler
/// decision and the value is never read; on real threads it is generous
/// enough that a loaded box cannot turn a slow rank into a dead one.
pub const WAIT: Duration = Duration::from_secs(10);

/// FNV-1a over the bit patterns of a result vector — the same fingerprint
/// style as `tests/engine_golden.rs`.
fn fnv1a_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One fingerprint for a whole world — FNV-1a over every rank's index and
/// result bits, in rank order — or every rank's failure (`None`: the rank
/// never reported). Both hosts fold their outcomes through this, so equal
/// fingerprints mean bitwise-equal results on every rank.
pub fn world_fingerprint(outcomes: Vec<Option<RankOutcome>>) -> Result<u64, Vec<String>> {
    let (mut bits, mut errors) = (Vec::new(), Vec::new());
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Some(Ok(v)) => {
                bits.push(rank as f32);
                bits.extend(v);
            }
            Some(Err(e)) => errors.push(format!("rank {rank}: {e}")),
            None => errors.push(format!("rank {rank}: no result")),
        }
    }
    if errors.is_empty() {
        Ok(fnv1a_f32(&bits))
    } else {
        Err(errors)
    }
}

/// Rank inputs chosen so that any change in combine order is visible
/// bitwise: mixed magnitudes make float addition order-sensitive.
pub fn order_sensitive_input(rank: usize, m: usize) -> Vec<f32> {
    (0..m)
        .map(|j| {
            let base = match (rank + j) % 4 {
                0 => 1.0e8,
                1 => 1.0,
                2 => -1.0e8,
                _ => 3.7e-5,
            };
            base + (rank as f32 + 1.0) * 0.123 + j as f32 * 0.017
        })
        .collect()
}

fn wire<T, E: Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Production rank bodies, generic over the transport.
// ---------------------------------------------------------------------------

fn allreduce_tree_body<T: Transport>(mut t: T) -> RankOutcome {
    let mut v = order_sensitive_input(t.rank(), 4);
    wire(allreduce_tree(&mut t, &mut v))?;
    Ok(v)
}

/// The tree over members {1, 2, 3} of a 4-rank world: rank 0 only takes
/// the ops, and the world's next collective still lines up.
fn members_123_body<T: Transport>(mut t: T) -> RankOutcome {
    let (mut v, mut after) = (order_sensitive_input(t.rank(), 4), vec![t.rank() as f32]);
    let (members, fold) = (&mut Membership::of(1..4), &mut Dense::new(&mut v, None));
    wire(allreduce_over(&mut t, members, fold, None))?;
    wire(allreduce_tree(&mut t, &mut after))?;
    Ok([v, after].concat())
}

/// Rank `rank`'s sparse contribution: every other coordinate.
fn sparse_input(rank: usize) -> SparseVec {
    let dense: Vec<f32> = order_sensitive_input(rank, 6)
        .into_iter()
        .enumerate()
        .map(|(j, x)| if (rank + j).is_multiple_of(2) { x } else { 0.0 })
        .collect();
    SparseVec::from_dense(&dense)
}

fn sparse_body<T: Transport>(mut t: T) -> RankOutcome {
    let mut sv = sparse_input(t.rank());
    let (opts, mut profile) = (SparseTreeOpts::default(), SparseLevelProfile::default());
    wire(sparse_allreduce_tree(&mut t, &mut sv, opts, &mut profile))?;
    Ok(sv.to_dense())
}

fn ring_body<T: Transport>(mut t: T) -> RankOutcome {
    let mut v = order_sensitive_input(t.rank(), 4);
    wire(allreduce_ring(&mut t, &mut v))?;
    Ok(v)
}

/// Two consecutive collectives — catches tag-space collisions between
/// overlapping operations under reordering.
fn back_to_back_body<T: Transport>(mut t: T) -> RankOutcome {
    let mut a = order_sensitive_input(t.rank(), 3);
    wire(allreduce_tree(&mut t, &mut a))?;
    let mut b: Vec<f32> = a.iter().map(|x| x * 0.5).collect();
    wire(allreduce_tree(&mut t, &mut b))?;
    a.extend(b);
    Ok(a)
}

/// Hierarchical allreduce as two memberships of one flat world of
/// `per_group`-rank groups: the group's tree, the group leaders' tree, the
/// group's way down from its leader.
fn hierarchical_body<T: Transport>(mut t: T, per_group: usize) -> RankOutcome {
    let (first, p) = (t.rank() / per_group * per_group, t.size());
    let group = &mut Membership::of(first..first + per_group);
    let leaders = &mut Membership::of((0..p).step_by(per_group));
    let mut v = order_sensitive_input(t.rank(), 4);
    let fold = &mut Dense::new(&mut v, None);
    for members in [&mut *group, leaders] {
        wire(allreduce_over(&mut t, members, fold, None))?;
    }
    wire(broadcast_over(&mut t, group, 0, fold))?;
    Ok(v)
}

/// `p` learners (ranks `0..p`) against `shards` shards over `dim` parameters.
fn layout(p: usize, shards: usize, dim: usize) -> PsLayout {
    PsLayout { p, shards, dim }
}

/// Serve this rank's shard of `layout` from zeros; the rank's result is
/// the segment the learners left behind.
fn shard_body<T: Transport>(mut t: T, layout: &PsLayout) -> RankOutcome {
    wire(serve_shard(&mut t, layout, &vec![0.0; layout.dim]))
}

/// 2 learners + 1 shard. Learners assert their own add is visible in their
/// subsequent pull (per-src FIFO + causality) and that pulls never go
/// backwards; the shard's final segment is the bitwise-checked result.
/// With `two_rounds`, learner 0 runs a second add+pull round, so pull
/// monotonicity is checked against a *moving* shard state — asymmetric on
/// purpose: both learners at 2 rounds pushes the interleaving count past
/// the exhaustion budget without adding coverage.
fn ps_body<T: Transport>(t: T, two_rounds: bool) -> RankOutcome {
    let layout = layout(2, 1, 2);
    let rank = t.rank();
    if rank == 2 {
        return shard_body(t, &layout);
    }
    let rounds = if two_rounds && rank == 0 { 2 } else { 1 };
    let delta = vec![(rank + 1) as f32, (10 * (rank + 1)) as f32];
    let mut client = PsTransportClient::new(t, layout);
    let mut prev = vec![f32::NEG_INFINITY; 2];
    for _ in 0..rounds {
        wire(client.add(&delta))?;
        let pulled = wire(client.pull(WAIT))?;
        for ((a, d), pv) in pulled.iter().zip(&delta).zip(&prev) {
            if a < d {
                return Err(format!("own add not visible in pull: got {a}, sent {d}"));
            }
            if a < pv {
                return Err(format!(
                    "pull went backwards: {a} after {pv} (torn snapshot)"
                ));
            }
        }
        prev = pulled;
    }
    Ok(vec![])
}

/// One writer, one `pull_snapshot` reader, two one-element shards
/// (`dim == shards`, the layout where an add is as short as a control
/// word). The writer's add reaches the shards at independent times, so a
/// plain pull can be torn; every cut `pull_snapshot` *returns* must be
/// uniform across the shards. The scheduler may starve the writer's add at
/// one shard for as long as the reader keeps asking, so running out of
/// retries is a legal outcome — returning a torn cut is not.
fn ps_two_shards_body<T: Transport>(t: T) -> RankOutcome {
    let layout = layout(2, 2, 2);
    let rank = t.rank();
    if rank >= layout.p {
        return shard_body(t, &layout);
    }
    let mut client = PsTransportClient::new(t, layout);
    if rank == 0 {
        wire(client.add(&[1.0, 1.0]))?;
        return Ok(vec![]);
    }
    match client.pull_snapshot(WAIT, 1) {
        Ok(x) if x[0].to_bits() == x[1].to_bits() => Ok(vec![]),
        Ok(x) => Err(format!("torn snapshot returned: {x:?}")),
        Err(PsTransportError::SnapshotContention { .. }) => Ok(vec![]),
        Err(e) => Err(e.to_string()),
    }
}

/// One rank of a many-pusher PS world: pushers `0..layout.p - 1`, one
/// reader at the last learner rank, then the shards. Every pusher `r` adds
/// `pushes` constant vectors of `r + 1` (exactly representable, so sums
/// stay exact in f32) while the reader pulls mid-flight. A shard applies
/// whole adds serially, so a plain pull must see every shard *segment*
/// uniform; a snapshot is a consistent cut, so it must be uniform across
/// the whole vector. Once every client is done, each shard's final segment
/// must be the exact expected sum — any miss is a lost update.
fn ps_world_body<T: Transport>(
    t: T,
    layout: PsLayout,
    pushes: usize,
    snapshot: bool,
) -> RankOutcome {
    let (rank, reader) = (t.rank(), layout.p - 1);
    if rank > reader {
        let segment = shard_body(t, &layout)?;
        let expected: f32 = (1..=reader).map(|r| (r * pushes) as f32).sum();
        if segment.iter().any(|&v| v != expected) {
            return Err(format!("lost update: expected {expected}, got {segment:?}"));
        }
        return Ok(segment);
    }
    let mut client = PsTransportClient::new(t, layout);
    if rank < reader {
        for _ in 0..pushes {
            wire(client.add(&vec![(rank + 1) as f32; layout.dim]))?;
        }
        return Ok(vec![]);
    }
    let cuts: Vec<(usize, usize)> = if snapshot {
        vec![(0, layout.dim)]
    } else {
        (0..layout.shards).map(|k| layout.segment(k)).collect()
    };
    for _ in 0..6 {
        let x = if snapshot {
            client.pull_snapshot(WAIT, 400)
        } else {
            client.pull(WAIT)
        };
        let x = x.map_err(|e| format!("reader pull failed: {e}"))?;
        for &(lo, hi) in &cuts {
            if x[lo..hi]
                .windows(2)
                .any(|w| w[0].to_bits() != w[1].to_bits())
            {
                return Err(format!("torn read in [{lo}, {hi}): {:?}", &x[lo..hi]));
            }
        }
    }
    Ok(vec![])
}

/// The production pull-retry ladder ([`PsTransportClient::pull_retry`])
/// against the production shard: the learner re-requests after a deadline
/// miss, and the model's timeout budget bounds how many misses an
/// interleaving may inject. Two misses per interleaving and two retries:
/// the third attempt must be served (exactly the ladder's worst case), a
/// late reply to an abandoned attempt must never satisfy a later one, and
/// every interleaving ends with the learner holding the parameters.
fn pull_retry_body<T: Transport>(t: T) -> RankOutcome {
    let layout = layout(1, 1, 1);
    if t.rank() == 1 {
        return shard_body(t, &layout);
    }
    let mut client = PsTransportClient::new(t, layout);
    wire(client.add(&[42.0]))?;
    wire(client.pull_retry(WAIT, 2, Duration::ZERO))
}

/// The sparse rows' tree options: partials trimmed to two entries, so the
/// spill is exercised.
const BOUNDED: SparseTreeOpts = SparseTreeOpts {
    union_bound: Some(2),
    q8_scale: None,
};

/// This rank's input through the unarmed tree — the dense input, or
/// (`sparse`) the sparse one under [`BOUNDED`], its spill appended.
fn unarmed<T: Transport>(t: &mut T, sparse: bool) -> RankOutcome {
    let (mut v, mut sv) = (order_sensitive_input(t.rank(), 3), sparse_input(t.rank()));
    if !sparse {
        wire(allreduce_tree(t, &mut v))?;
        return Ok(v);
    }
    let spill = wire(sparse_allreduce_tree(
        t,
        &mut sv,
        BOUNDED,
        &mut Default::default(),
    ))?;
    Ok([sv.to_dense(), spill.to_dense()].concat())
}

/// The same through the armed tree over the whole world: the result (then
/// the epoch word), or an error naming what was lost other than `dead`.
fn armed<T: Transport>(t: &mut T, sparse: bool, dead: Option<usize>) -> RankOutcome {
    let mut membership = Membership::new(t.size());
    let (mut v, mut sv) = (order_sensitive_input(t.rank(), 3), sparse_input(t.rank()));
    let mut profile = SparseLevelProfile::default();
    let mut fold = SparseFold::new(&mut sv, BOUNDED, &mut profile);
    let out = match sparse {
        false => allreduce_over(
            t,
            &mut membership,
            &mut Dense::new(&mut v, None),
            Some(WAIT),
        ),
        true => allreduce_over(t, &mut membership, &mut fold, Some(WAIT)),
    };
    let out = wire(out)?;
    if out.lost != dead.as_slice() {
        return Err(format!("expected to lose {dead:?}, lost {:?}", out.lost));
    }
    if sparse {
        let spill = fold.spill.to_dense();
        v = [sv.to_dense(), spill].concat();
    }
    v.push(out.epoch as f32);
    Ok(v)
}

/// The armed tree, fault-free, after the unarmed one on the same input: no
/// eviction, and a result bitwise the unarmed tree's (the masks and the
/// direct result distribution must not perturb a single bit).
fn ft_fault_free_body<T: Transport>(mut t: T, sparse: bool) -> RankOutcome {
    let plain = unarmed(&mut t, sparse)?;
    let v = armed(&mut t, sparse, None)?;
    if v.iter()
        .zip(&plain)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(format!(
            "armed result {v:?} is not the plain tree's {plain:?}"
        ));
    }
    Ok(v)
}

/// The armed tree with rank `dead` gone before contributing: its endpoint
/// drop is the hangup the survivors detect, and every survivor must evict
/// exactly that rank and agree on the sum and the epoch.
fn ft_one_dead_body<T: Transport>(mut t: T, dead: usize, sparse: bool) -> RankOutcome {
    match t.rank() == dead {
        true => Ok(vec![]),
        false => armed(&mut t, sparse, Some(dead)),
    }
}

/// One engine rank of `algo` on a tiny fixture (8 samples, 2 features, 2
/// classes — identical on every rank and every execution): the production
/// rank loop, batch orders and all, in a world of the algorithm's learners
/// plus its parameter-server ranks.
fn engine_body<T: Transport>(t: T, algo: Algorithm) -> RankOutcome {
    let x: Vec<f32> = (0..16)
        .map(|i| ((i * 37 % 11) as f32) / 11.0 - 0.5)
        .collect();
    let train = Dataset::new(x, (0..8).map(|i| i % 2).collect(), &[2], 2);
    let tx: Vec<f32> = (0..8).map(|i| ((i * 53 % 7) as f32) / 7.0 - 0.5).collect();
    let test = Dataset::new(tx, (0..4).map(|i| (i + 1) % 2).collect(), &[2], 2);
    let cfg = TrainConfig::new(1, 2, 0.05, 7);
    let model = || tiny_mlp(2, 3, 2, &mut SeedRng::new(42));
    let hist = wire(run_rank(t, &model, &train, &test, &algo, &cfg))?;
    hist.final_params
        .ok_or_else(|| "no final params".to_string())
}

// ---------------------------------------------------------------------------
// The rows.
// ---------------------------------------------------------------------------

/// A row over a flat world: one generic body, instantiated for the model
/// and for the production transport.
macro_rules! row {
    ($name:expr, $p:expr, $body:expr) => {
        ModelScenario {
            real: Some(flat($p, $body)),
            ..ModelScenario::new($name, $p, $body)
        }
    };
}

/// A [`row!`] that runs at several world sizes, named `<kind>_p<p>`.
macro_rules! sized {
    ($kind:expr, $p:expr, $body:expr) => {
        row!(format!("{}_p{}", $kind, $p), $p, $body)
    };
}

/// The same row under bounded search: `execs` interleavings off one seed.
fn bounded(sc: ModelScenario, execs: usize) -> ModelScenario {
    ModelScenario {
        name: format!("{}_bounded", sc.name),
        search: Search::Random {
            execs,
            seed: 0x0005_a56d,
        },
        ..sc
    }
}

fn sc_hierarchical(groups: usize, per_group: usize) -> ModelScenario {
    let name = format!("hierarchical_{groups}x{per_group}");
    row!(name, groups * per_group, move |t| hierarchical_body(
        t, per_group
    ))
}

/// The wildcard race check stays off on every PS row: the shard's
/// arrival-order merge is *by design* order-insensitive here, and the
/// bitwise check across all interleavings is the property that verifies it.
fn ps_row(sc: ModelScenario) -> ModelScenario {
    ModelScenario {
        check_races: false,
        ..sc
    }
}

/// `pushers` pushers + a reader against `shards` shards (see
/// [`ps_world_body`]).
fn sc_ps_world(snapshot: bool, pushers: usize, shards: usize, pushes: usize) -> ModelScenario {
    let layout = layout(pushers + 1, shards, 24);
    let kind = if snapshot { "snapshot" } else { "push_pull" };
    let name = format!("ps_{kind}_{pushers}x{shards}");
    ps_row(row!(name, layout.p + shards, move |t| {
        ps_world_body(t, layout, pushes, snapshot)
    }))
}

/// Model-only: on OS threads the survivors wait out real deadlines, and a
/// generous one is slow where a short one confuses slow with dead.
fn sc_ft_one_dead(p: usize, dead: usize, sparse: bool) -> ModelScenario {
    let kind = if sparse { "ft_sparse" } else { "ft_allreduce" };
    ModelScenario {
        check_races: false,
        ..ModelScenario::new(format!("{kind}_one_dead_p{p}"), p, move |t| {
            ft_one_dead_body(t, dead, sparse)
        })
    }
}

fn sc_engine(name: &str, algo: Algorithm, shards: usize) -> ModelScenario {
    row!(name, algo.learners() + shards, move |t| engine_body(
        t, algo
    ))
}

/// The production corpus: exhaustive rows at p ≤ 4, then the seeded
/// bounded rows at p = 8 and the three many-pusher PS worlds.
pub fn corpus() -> Vec<ModelScenario> {
    let sasgd = Algorithm::sasgd(2, 1, GammaP::OverP);
    // DaSGD's point on the lattice: each round's total lands a round late.
    let dasgd = Algorithm::Sasgd {
        p: 2,
        schedule: TSchedule::Fixed { t: 1 },
        gamma_p: GammaP::OverP,
        compression: None,
        delayed: true,
    };
    // Downpour at p = 1 against its one shard, `run_rank` on both ranks:
    // the learner's claims, pushes and retry-laddered pulls interleave with
    // the shard's serve loop every way the wire allows, and both ranks'
    // final parameters must not notice.
    let downpour = Algorithm::Downpour {
        p: 1,
        t: 1,
        staleness_gamma: false,
    };
    vec![
        sized!("allreduce_tree", 2, allreduce_tree_body),
        sized!("allreduce_tree", 3, allreduce_tree_body),
        sized!("allreduce_tree", 4, allreduce_tree_body),
        row!("members_1to3_of_4", 4, members_123_body),
        sized!("sparse_allreduce_tree", 3, sparse_body),
        sized!("sparse_allreduce_tree", 4, sparse_body),
        sized!("allreduce_ring", 3, ring_body),
        sized!("allreduce_ring", 4, ring_body),
        sized!("back_to_back_allreduce", 3, back_to_back_body),
        sized!("back_to_back_allreduce", 4, back_to_back_body),
        sc_hierarchical(2, 2),
        ps_row(row!("ps_transport", 3, |t| ps_body(t, false))),
        ps_row(row!("ps_snapshot", 3, |t| ps_body(t, true))),
        ps_row(row!("ps_snapshot_two_shards", 4, ps_two_shards_body)),
        sized!("ft_allreduce_fault_free", 3, |t| ft_fault_free_body(
            t, false
        )),
        sized!("ft_allreduce_fault_free", 4, |t| ft_fault_free_body(
            t, false
        )),
        sc_ft_one_dead(3, 2, false),
        sc_ft_one_dead(4, 3, false),
        sized!("ft_sparse_fault_free", 3, |t| ft_fault_free_body(t, true)),
        sized!("ft_sparse_fault_free", 4, |t| ft_fault_free_body(t, true)),
        sc_ft_one_dead(4, 3, true),
        sc_engine("engine_sasgd_rank", sasgd, 0),
        sc_engine("engine_dasgd_delayed_average", dasgd, 0),
        sc_engine("engine_downpour_rank", downpour, 1),
        ModelScenario {
            timeout_budget: 2,
            ..row!("downpour_pull_retry", 2, pull_retry_body)
        },
        bounded(sized!("allreduce_tree", 8, allreduce_tree_body), 12),
        bounded(sized!("allreduce_ring", 8, ring_body), 8),
        bounded(sized!("sparse_allreduce_tree", 8, sparse_body), 12),
        bounded(sc_hierarchical(2, 4), 12),
        bounded(
            sized!("ft_allreduce_fault_free", 8, |t| ft_fault_free_body(
                t, false
            )),
            12,
        ),
        bounded(sc_ft_one_dead(8, 5, false), 12),
        bounded(sc_ps_world(false, 4, 2, 6), 24),
        bounded(sc_ps_world(false, 8, 3, 4), 12),
        bounded(sc_ps_world(true, 4, 3, 6), 24),
    ]
}

// ---------------------------------------------------------------------------
// Negative controls: the implanted bugs the checker must catch.
// ---------------------------------------------------------------------------

/// A deliberately broken tree reduce to rank 0 that merges children in
/// **arrival order** (via [`Transport::recv_any`]) instead of rank order.
/// Float addition does not commute bitwise, so its result depends on the
/// schedule — the checker must flag the wildcard receive as a race.
fn bad_reduce_arrival_order<T: Transport>(comm: &mut T, buf: &mut [f32]) {
    let (p, rank) = (comm.size(), comm.rank());
    let tag = (comm.next_op() << 4) | 1;
    // Children/parent sets identical to the correct tree's…
    let mut children = Vec::new();
    let mut bit = 1usize;
    let mut parent = None;
    while bit < p {
        if rank & bit != 0 {
            parent = Some(rank & !bit);
            break;
        }
        if rank | bit < p {
            children.push(rank | bit);
        }
        bit <<= 1;
    }
    // …but the merge happens in whatever order the messages arrive.
    let candidates: Vec<(usize, u64)> = children.iter().map(|&c| (c, tag)).collect();
    for _ in 0..candidates.len() {
        let (_, part) = comm.recv_any(&candidates).expect("arrival-order recv");
        for (a, b) in buf.iter_mut().zip(&part) {
            *a += b;
        }
    }
    if let Some(par) = parent {
        comm.send(par, tag, buf.to_vec()).expect("bad-reduce send");
    }
}

/// What the model checker's self-check produced. Every field must hold
/// for the analyzer to report `ok` — a silently dead checker cannot go
/// green.
#[derive(Debug, Clone)]
pub struct ModelSelfCheck {
    /// Races found in the implanted arrival-order reduce.
    pub bad_reduce_races: usize,
    /// Minimal replay string witnessing the race.
    pub bad_reduce_witness: String,
    /// Replaying the witness re-detects the race deterministically.
    pub bad_reduce_replay_confirms: bool,
    /// Lost updates found in the implanted load/store PS cell.
    pub lost_updates_caught: usize,
    /// The read-modify-write twin of the same access pattern is clean.
    pub rmw_clean: bool,
    /// The implanted recv cycle was detected structurally.
    pub cycle_caught: bool,
    /// The cycle report (names every blocked `(src, tag)` edge).
    pub cycle_report: String,
}

impl ModelSelfCheck {
    /// All implanted bugs caught, by the right detector, with replayable
    /// witnesses.
    pub fn ok(&self) -> bool {
        self.bad_reduce_races > 0
            && !self.bad_reduce_witness.is_empty()
            && self.bad_reduce_replay_confirms
            && self.lost_updates_caught > 0
            && self.rmw_clean
            && self.cycle_caught
            && self.cycle_report.contains("blocked on")
    }
}

/// An implanted-bug scenario: no invariant is *expected* to hold, the
/// detectors the caller arms are what is under test.
fn implanted(
    name: &str,
    p: usize,
    check_races: bool,
    body: impl Fn(ModelTransport) -> RankOutcome + Send + Sync + 'static,
) -> ModelScenario {
    ModelScenario {
        check_races,
        expect_bitwise: false,
        ..ModelScenario::new(name, p, body)
    }
}

/// The implanted arrival-order reduce over the model world: the root's
/// wildcard receive can match concurrent, bitwise-different children —
/// a happens-before race the checker must flag (with a replay string).
pub fn sc_bad_reduce() -> ModelScenario {
    implanted("bad_reduce_arrival_order", 3, true, |mut t| {
        let mut v = order_sensitive_input(t.rank(), 4);
        bad_reduce_arrival_order(&mut t, &mut v);
        Ok(v)
    })
}

/// The implanted PS lost update: read-then-blind-write on a shared cell.
pub fn sc_lost_update() -> ModelScenario {
    implanted("implanted_lost_update", 2, false, |mut t| {
        let v = wire(t.cell_load(0))?;
        wire(t.cell_store(0, v + 1.0))?;
        Ok(vec![])
    })
}

/// The clean twin: the same increments through the scheduler-mediated
/// read-modify-write, which joins the cell clock and cannot lose writes.
pub fn sc_rmw_clean() -> ModelScenario {
    implanted("rmw_increment_clean", 2, false, |mut t| {
        wire(t.cell_add(0, 1.0))?;
        Ok(vec![])
    })
}

/// The implanted recv cycle: every rank receives from its neighbour
/// before sending — a pure wait-for cycle the checker must report
/// structurally (no watchdog involved).
pub fn sc_recv_cycle() -> ModelScenario {
    implanted("implanted_recv_cycle", 2, false, |mut t| {
        let peer = (t.rank() + 1) % 2;
        let v = wire(t.recv(peer, 99))?;
        wire(t.send(peer, 99, v.clone()))?;
        Ok(v)
    })
}

/// Run all negative controls and assemble the self-check verdict.
pub fn model_self_checks() -> ModelSelfCheck {
    let bad = sc_bad_reduce();
    let bad_res = explore(&bad);
    let bad_reduce_witness = bad_res.witness.clone().unwrap_or_default();
    let bad_reduce_replay_confirms = match parse_witness(&bad_reduce_witness) {
        Some(prefix) if !prefix.is_empty() => !replay_decisions(&bad, &prefix).races.is_empty(),
        _ => false,
    };
    let lost = explore(&sc_lost_update());
    let rmw = explore(&sc_rmw_clean());
    let cyc = explore(&sc_recv_cycle());
    ModelSelfCheck {
        bad_reduce_races: bad_res.races,
        bad_reduce_witness,
        bad_reduce_replay_confirms,
        lost_updates_caught: lost.lost_updates,
        rmw_clean: rmw.lost_updates == 0 && rmw.races == 0 && rmw.cycles == 0,
        cycle_caught: cyc.cycles > 0,
        cycle_report: cyc.reports.first().cloned().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_named(name: &str) -> ModelScenario {
        let found = corpus().into_iter().find(|sc| sc.name == name);
        found.unwrap_or_else(|| panic!("{name} missing from the corpus"))
    }

    #[test]
    fn allreduce_tree_p3_is_clean_and_exhaustive() {
        let res = explore(&row_named("allreduce_tree_p3"));
        assert!(res.ok(), "{res:?}");
        assert!(res.exhausted);
        assert!(res.explored >= 1);
    }

    #[test]
    fn bad_reduce_race_is_found_with_replayable_witness() {
        let check = model_self_checks();
        assert!(check.bad_reduce_races > 0, "{check:?}");
        assert!(check.bad_reduce_replay_confirms, "{check:?}");
        assert!(check.lost_updates_caught > 0, "{check:?}");
        assert!(check.rmw_clean, "{check:?}");
        assert!(check.cycle_caught, "{check:?}");
        assert!(check.cycle_report.contains("wait-for cycle"), "{check:?}");
        assert!(check.ok(), "{check:?}");
    }

    #[test]
    fn engine_downpour_rank_is_bitwise_across_interleavings() {
        let res = explore(&row_named("engine_downpour_rank"));
        assert!(res.ok(), "{res:?}");
        // The learner's async push races its shard's serve loop, so there
        // is more than one trace — and one result.
        assert!(res.explored > 1, "{res:?}");
        assert_eq!(res.distinct_results, 1, "{res:?}");
    }

    #[test]
    fn downpour_retry_always_ends_served() {
        let res = explore(&row_named("downpour_pull_retry"));
        assert!(res.ok(), "{res:?}");
        // The timeout budget makes deadline branches real choices, so the
        // retry ladder itself is explored.
        assert!(res.explored > 1, "{res:?}");
    }
}
