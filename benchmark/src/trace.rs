//! In-memory spans recorded around each call into a layer, and the folds
//! that turn them into per-layer numbers: self time, the tail-percentile
//! rule, and the allreduce wait/busy split.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (step, round, epoch or run).
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One rank's span buffer. Every rank measures against the same `base`
/// instant so entry timestamps compare across ranks.
pub struct Tracer {
    base: Instant,
    pub rank: usize,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(base: Instant, rank: usize) -> Self {
        Tracer {
            base,
            rank,
            // Room for a whole run, so recording a span rarely allocates.
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id as usize].end_ns = self.now_ns();
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// `(calls, self ns)` per span name.
pub fn fold_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail a sample can support: the highest percentile that still has
/// at least ten samples beyond it, as `(value, percentile)`. A sample too
/// small to put ten beyond its median reports the median at percentile 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 21 {
        return (median(&v), 50.0);
    }
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Wait and busy time of one collective call on one rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaitBusy {
    pub wait_ns: u64,
    pub busy_ns: u64,
}

/// Split each rank's collective calls of one round into waiting for the
/// last rank to arrive and working: wait = latest entry − own entry,
/// busy = call duration − wait. `calls[rank][round]` is `(entry, duration)`;
/// the result is indexed `[round][rank]` over the rounds every rank reached.
pub fn wait_busy(calls: &[Vec<(u64, u64)>]) -> Vec<Vec<WaitBusy>> {
    let rounds = calls.iter().map(Vec::len).min().unwrap_or(0);
    (0..rounds)
        .map(|r| {
            let latest = calls.iter().map(|c| c[r].0).max().unwrap_or(0);
            calls
                .iter()
                .map(|c| {
                    let (entry, dur) = c[r];
                    let wait_ns = (latest - entry).min(dur);
                    WaitBusy {
                        wait_ns,
                        busy_ns: dur - wait_ns,
                    }
                })
                .collect()
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, `tid` = rank, `args.parent` = causing span.
pub fn chrome_trace(ranks: &[Tracer]) -> Json {
    let mut events = Vec::new();
    for tr in ranks {
        for (i, s) in tr.spans.iter().enumerate() {
            let (cat, _) = s.name.split_once('.').unwrap_or(("loop", s.name));
            events.push(Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(cat.into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tr.rank as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // run[0,100] { step[10,60] { fwd[10,30], bwd[30,55] }, eval[60,90] }
        let spans = vec![
            span("run", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("nn.forward", 10, 30, Some(1)),
            span("nn.backward", 30, 55, Some(1)),
            span("nn.eval", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 5, 20, 25, 30]);
        let folded = fold_by_name(&spans);
        assert_eq!(folded["step"], (1, 5));
        assert_eq!(folded["nn.forward"], (1, 20));
        let total: u64 = folded.values().map(|v| v.1).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut tr = Tracer::new(Instant::now(), 3);
        let run = tr.begin("run");
        let step = tr.begin("step");
        let leaf = tr.begin("nn.forward");
        tr.end(leaf);
        tr.end(step);
        let eval = tr.begin("nn.eval");
        tr.end(eval);
        tr.end(run);
        let parents: Vec<_> = tr.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!((value, pct), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99.0));
        // Too few samples to put ten beyond the median: fall back to it.
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(tail(&v), (8.5, 50.0));
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&v), (12.0, 100.0 * 12.0 / 22.0));
    }

    #[test]
    fn wait_is_distance_to_latest_entry() {
        // Round 0: rank 1 arrives 30 late; both leave at 150.
        // Round 1: rank 0 arrives 5 late.
        let calls = vec![
            vec![(100, 50), (305, 20)],
            vec![(130, 20), (300, 26), (900, 1)],
        ];
        let wb = wait_busy(&calls);
        assert_eq!(wb.len(), 2, "only rounds every rank reached");
        assert_eq!(
            wb[0][0],
            WaitBusy {
                wait_ns: 30,
                busy_ns: 20
            }
        );
        assert_eq!(
            wb[0][1],
            WaitBusy {
                wait_ns: 0,
                busy_ns: 20
            }
        );
        assert_eq!(
            wb[1][0],
            WaitBusy {
                wait_ns: 0,
                busy_ns: 20
            }
        );
        assert_eq!(
            wb[1][1],
            WaitBusy {
                wait_ns: 5,
                busy_ns: 21
            }
        );
    }

    #[test]
    fn chrome_trace_parses_and_names_every_span() {
        let mut tr = Tracer::new(Instant::now(), 1);
        let run = tr.begin("run");
        let leaf = tr.begin("comm.allreduce");
        tr.end(leaf);
        tr.end(run);
        let text = chrome_trace(&[tr]).to_string();
        let back = Json::parse(&text).unwrap();
        let events = back.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("comm"));
        assert_eq!(events[1].get("tid").unwrap().as_f64(), Some(1.0));
    }
}
