//! Open-loop load on the serving layer: one generator thread sends
//! Poisson arrivals at a fixed offered rate, one settler thread resolves
//! the tickets, and every request is timed from the moment it was due.

use crate::check::{read_ok, tag, CheckFailed};
use crate::rng::Rng;
use crate::stats::{median, merge_sorted, quantile, SampleBuf};
use crate::trace::{at_ns, Span};
use rcuarray::Scheme;
use rcuarray_obs::{bucket_lo, HistogramSnapshot};
use rcuarray_service::{slo_snapshot, Request, Response, Service, SloSnapshot, Ticket};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sleep while the next send is further off than this; yield closer in.
const SLEEP_ABOVE: Duration = Duration::from_micros(2000);
/// How early a sleep ends, to absorb wake-up delay.
const SLEEP_MARGIN: Duration = Duration::from_micros(1000);
/// A ticket not resolved within this long fails the run.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Share of a phase, from its start, left out of its latency quantiles.
const WARMUP_SHARE: f64 = 0.05;
/// Record spans for one request in this many (traced runs).
const SPAN_EVERY: u64 = 8;

/// One fixed-rate phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Offered load, requests per second.
    pub rate: f64,
    /// Length of the arrival schedule.
    pub secs: f64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// How the requests ended.
    pub outcomes: Outcomes,
    /// Gets, sorted latency from due time to settled, ns (refused, shed
    /// and failed requests count as `u32::MAX`).
    pub get_ns: Vec<u64>,
    /// Puts, likewise.
    pub put_ns: Vec<u64>,
    /// How late the generator sent each request, sorted, ns.
    pub late_ns: Vec<u64>,
    /// Duration of each `submit` call, sorted, ns.
    pub submit_ns: Vec<u64>,
    /// Median latency of the requests due in the phase's second quarter
    /// and last quarter, ns (a growing queue shows as a rise).
    pub quarter_p50_ns: (f64, f64),
    /// Serving-layer counters and histograms across the phase.
    pub slo: SloDelta,
    /// Request spans (traced runs only).
    pub spans: Vec<Span>,
}

impl PhaseOut {
    /// Every request's latency, sorted.
    pub fn all_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.get_ns.iter().chain(&self.put_ns).copied().collect();
        v.sort_unstable();
        v
    }
}

/// The difference of two [`SloSnapshot`]s.
#[derive(Debug, Default, Clone)]
pub struct SloDelta {
    /// Requests submitted.
    pub requests: u64,
    /// Read-side pins taken by batches.
    pub pins: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests refused by admission control.
    pub overloaded: u64,
    /// Requests shed past their deadline.
    pub shed: u64,
    /// Requests whose execution failed.
    pub failures: u64,
    /// Queue wait, ns, per request.
    pub queue_wait: HistogramSnapshot,
    /// Batch execution, ns, per batch.
    pub execute: HistogramSnapshot,
}

fn hist_sub(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets: Vec<(usize, u64)> = a
        .buckets
        .iter()
        .map(|&(i, n)| {
            let before = b
                .buckets
                .iter()
                .find(|&&(j, _)| j == i)
                .map_or(0, |&(_, m)| m);
            (i, n - before)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        count: a.count - b.count,
        sum: a.sum.wrapping_sub(b.sum),
        max: a.max,
        buckets,
    }
}

impl SloDelta {
    fn between(after: &SloSnapshot, before: &SloSnapshot) -> Self {
        SloDelta {
            requests: after.requests - before.requests,
            pins: after.pins - before.pins,
            batches: after.batches - before.batches,
            overloaded: after.overloaded - before.overloaded,
            shed: after.shed - before.shed,
            failures: after.failures - before.failures,
            queue_wait: hist_sub(&after.queue_wait, &before.queue_wait),
            execute: hist_sub(&after.execute, &before.execute),
        }
    }

    /// Add another phase's delta.
    pub fn add(&mut self, o: &SloDelta) {
        self.requests += o.requests;
        self.pins += o.pins;
        self.batches += o.batches;
        self.overloaded += o.overloaded;
        self.shed += o.shed;
        self.failures += o.failures;
        self.queue_wait = self.queue_wait.merge(&o.queue_wait);
        self.execute = self.execute.merge(&o.execute);
    }
}

/// Quantile `q` of a histogram, interpolated linearly inside the bucket
/// that holds the rank (the histogram's own `quantile` returns the
/// bucket's lower bound, which reads the same on every run).
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return f64::NAN;
    }
    let rank = (q * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for &(i, n) in &h.buckets {
        let n = n as f64;
        if seen + n >= rank {
            let lo = bucket_lo(i) as f64;
            let hi = bucket_lo(i + 1) as f64;
            return lo + (hi - lo) * (rank - seen) / n;
        }
        seen += n;
    }
    h.max as f64
}

/// How the requests of one phase ended, as the client saw them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests submitted.
    pub submitted: u64,
    /// Answered with a value or an acknowledgement.
    pub served: u64,
    /// Refused by admission control.
    pub overloaded: u64,
    /// Shed past their deadline.
    pub shed: u64,
    /// Execution failed.
    pub failed: u64,
}

impl Outcomes {
    /// Requests that were not served.
    pub fn refused(&self) -> u64 {
        self.overloaded + self.shed + self.failed
    }

    fn count(&mut self, o: Outcome) {
        match o {
            Outcome::Served => self.served += 1,
            Outcome::Overloaded => self.overloaded += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Wrong => {}
        }
    }

    fn add(&mut self, o: &Outcomes) {
        self.submitted += o.submitted;
        self.served += o.served;
        self.overloaded += o.overloaded;
        self.shed += o.shed;
        self.failed += o.failed;
    }
}

/// Fail unless every submitted ticket resolved to exactly one outcome and
/// the service's own counters (`slo`, taken around the phase) saw the
/// same number of requests and the same refusals, sheds and failures as
/// the client. A service that miscounts, drops or answers a request
/// twice under another outcome fails here. The counters are
/// process-wide, so no other service may run in the process meanwhile.
pub fn expect_outcomes(what: &str, client: &Outcomes, slo: &SloDelta) -> Result<(), CheckFailed> {
    let resolved = client.served + client.refused();
    if resolved != client.submitted {
        return Err(CheckFailed(format!(
            "{what}: {resolved} outcomes for {} submitted requests",
            client.submitted
        )));
    }
    let seen = (slo.requests, slo.overloaded, slo.shed, slo.failures);
    let sent = (
        client.submitted,
        client.overloaded,
        client.shed,
        client.failed,
    );
    if seen != sent {
        return Err(CheckFailed(format!(
            "{what}: service counted (requests, overloaded, shed, failed) = {seen:?}, \
             client saw {sent:?}"
        )));
    }
    Ok(())
}

/// The service request for one mix op; a Put stores the index's tag.
fn request(seed: u64, idx: usize, is_put: bool) -> Request<u64> {
    if is_put {
        Request::Put {
            idx,
            value: tag(seed, idx),
        }
    } else {
        Request::Get { idx }
    }
}

/// A sent request, as the settler needs to judge and time it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    seq: u64,
    due: Instant,
    /// `submit` call start and end.
    submit: (Instant, Instant),
    idx: usize,
    is_put: bool,
}

struct Settled {
    sent: Sent,
    done: Instant,
    outcome: Outcome,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Served,
    Overloaded,
    Shed,
    Failed,
    Wrong,
}

fn classify(sent: &Sent, resp: Response<u64>, seed: u64) -> Outcome {
    match (resp, sent.is_put) {
        (Response::Value(Some(v)), false) if read_ok(seed, sent.idx, v) => Outcome::Served,
        (Response::Done { applied: 1 }, true) => Outcome::Served,
        (Response::Overloaded { .. }, _) => Outcome::Overloaded,
        (Response::Shed { .. }, _) => Outcome::Shed,
        (Response::Failed, _) => Outcome::Failed,
        _ => Outcome::Wrong,
    }
}

/// Resolve tickets as they complete. Tickets are queued per locale
/// (each locale's worker answers in order); the settler collects every
/// queue head that is already resolved, and when none is, blocks on the
/// older head. A ticket is thus timed when it resolves, not when an
/// older ticket of the other locale does. Each ticket is popped, and so
/// resolved, exactly once.
fn settle(
    rx: mpsc::Receiver<(Sent, Ticket<u64>)>,
    seed: u64,
    block_size: usize,
) -> Result<Vec<Settled>, CheckFailed> {
    let mut queues: [VecDeque<(Sent, Ticket<u64>)>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut out = Vec::new();
    let mut open = true;
    loop {
        // Take what the generator has sent so far; block only when
        // nothing is outstanding.
        while open {
            let next = if queues.iter().all(VecDeque::is_empty) {
                rx.recv().ok()
            } else {
                match rx.try_recv() {
                    Ok(p) => Some(p),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => None,
                }
            };
            match next {
                Some(p) => queues[(p.0.idx / block_size) % 2].push_back(p),
                None => open = false,
            }
        }
        if queues.iter().all(VecDeque::is_empty) {
            return Ok(out);
        }
        let mut progressed = false;
        for q in queues.iter_mut() {
            while let Some(resp) = q.front().and_then(|(_, t)| t.try_wait()) {
                let done = Instant::now();
                let (sent, _) = q.pop_front().expect("head exists");
                out.push(Settled {
                    sent,
                    done,
                    outcome: classify(&sent, resp, seed),
                });
                progressed = true;
            }
        }
        if progressed {
            continue;
        }
        // Nothing resolved yet: block on the older head.
        let qi = match (queues[0].front(), queues[1].front()) {
            (Some(a), Some(b)) => usize::from(b.0.due < a.0.due),
            (Some(_), None) => 0,
            _ => 1,
        };
        let (sent, ticket) = queues[qi].pop_front().expect("non-empty");
        match ticket.wait_timeout(SETTLE_TIMEOUT) {
            Ok(resp) => {
                let done = Instant::now();
                out.push(Settled {
                    sent,
                    done,
                    outcome: classify(&sent, resp, seed),
                });
            }
            Err(_) => {
                return Err(CheckFailed(format!(
                    "service ticket {} unresolved after {SETTLE_TIMEOUT:?}",
                    sent.seq
                )))
            }
        }
    }
}

/// Send one phase's arrival schedule to `service` and settle every
/// ticket. Checks every answer and that each ticket resolved once.
pub fn run_phase<S: Scheme>(
    service: &Service<u64, S>,
    seed: u64,
    stream: u64,
    phase: Phase,
    keys: usize,
    traced: bool,
) -> Result<PhaseOut, CheckFailed> {
    let block_size = service.array().config().block_size;
    let before = slo_snapshot();
    let client = service.client();
    let (tx, rx) = mpsc::channel::<(Sent, Ticket<u64>)>();
    let mean_gap_ns = 1e9 / phase.rate;
    let span_ns = (phase.secs * 1e9) as u64;
    let start = Instant::now() + Duration::from_millis(1);
    let (submitted, settled) = std::thread::scope(|s| {
        let settler = s.spawn(move || settle(rx, seed, block_size));
        let mut rng = Rng::new(seed, stream);
        let mut seq = 0u64;
        let mut at = 0u64;
        loop {
            at += rng.exp_gap_ns(mean_gap_ns);
            if at >= span_ns {
                break;
            }
            let due = start + Duration::from_nanos(at);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let left = due - now;
                if left > SLEEP_ABOVE {
                    std::thread::sleep(left - SLEEP_MARGIN);
                } else {
                    std::thread::yield_now();
                }
            }
            let (idx, is_put) = rng.mix_op(keys);
            let req = request(seed, idx, is_put);
            let t0 = Instant::now();
            let ticket = client.submit(req);
            let t1 = Instant::now();
            let sent = Sent {
                seq,
                due,
                submit: (t0, t1),
                idx,
                is_put,
            };
            tx.send((sent, ticket)).expect("settler alive");
            seq += 1;
        }
        drop(tx);
        (seq, settler.join().expect("settler panicked"))
    });
    let settled = settled?;
    let after = slo_snapshot();
    summarize(
        submitted,
        settled,
        phase,
        start,
        traced,
        stream,
        SloDelta::between(&after, &before),
    )
}

fn summarize(
    submitted: u64,
    settled: Vec<Settled>,
    phase: Phase,
    start: Instant,
    traced: bool,
    stream: u64,
    slo: SloDelta,
) -> Result<PhaseOut, CheckFailed> {
    let mut out = PhaseOut {
        outcomes: Outcomes {
            submitted,
            ..Outcomes::default()
        },
        slo,
        ..PhaseOut::default()
    };
    if settled.len() as u64 != submitted {
        return Err(CheckFailed(format!(
            "{} of {submitted} service tickets resolved",
            settled.len()
        )));
    }
    let n = settled.len();
    let (mut get, mut put) = (SampleBuf::with_capacity(n), SampleBuf::with_capacity(n));
    let (mut late, mut submit) = (SampleBuf::with_capacity(n), SampleBuf::with_capacity(n));
    let warm = start + Duration::from_secs_f64(phase.secs * WARMUP_SHARE);
    let quarter = |q: f64| start + Duration::from_secs_f64(phase.secs * q);
    let (mut q2, mut q4) = (Vec::new(), Vec::new());
    let mut wrong = 0u64;
    for st in &settled {
        let lat = (st.done - st.sent.due).as_nanos() as u64;
        out.outcomes.count(st.outcome);
        wrong += u64::from(st.outcome == Outcome::Wrong);
        // Unserved requests miss any latency limit.
        let lat = if st.outcome == Outcome::Served {
            lat
        } else {
            u64::MAX
        };
        let due = st.sent.due;
        if due >= warm {
            if st.sent.is_put {
                put.push(lat);
            } else {
                get.push(lat);
            }
            late.push((st.sent.submit.0 - due).as_nanos() as u64);
            submit.push((st.sent.submit.1 - st.sent.submit.0).as_nanos() as u64);
        }
        if due >= quarter(0.25) && due < quarter(0.5) {
            q2.push(lat as f64);
        } else if due >= quarter(0.75) {
            q4.push(lat as f64);
        }
        if traced && st.sent.seq % SPAN_EVERY == 0 {
            let op = (stream << 40) | st.sent.seq;
            let (d, s0, s1, e) = (
                at_ns(due),
                at_ns(st.sent.submit.0),
                at_ns(st.sent.submit.1),
                at_ns(st.done),
            );
            let span = |name, parent, start, end| Span {
                op,
                name,
                parent,
                start,
                end,
            };
            out.spans.push(span("request", None, d, e));
            out.spans
                .push(span("bench.gen_late", Some("request"), d, s0));
            out.spans
                .push(span("service.submit", Some("request"), s0, s1));
        }
    }
    if wrong > 0 {
        return Err(CheckFailed(format!(
            "{wrong} of {submitted} service answers were wrong (bad value or ack)"
        )));
    }
    expect_outcomes("service phase", &out.outcomes, &out.slo)?;
    out.get_ns = merge_sorted([get.samples()]);
    out.put_ns = merge_sorted([put.samples()]);
    out.late_ns = merge_sorted([late.samples()]);
    out.submit_ns = merge_sorted([submit.samples()]);
    out.quarter_p50_ns = (median(&mut q2), median(&mut q4));
    Ok(out)
}

/// What the capacity phase measured.
#[derive(Debug, Default)]
pub struct Capacity {
    /// Requests served per second in each [`crate::mix::WINDOW`]-long
    /// window after the first.
    pub window_rps: Vec<f64>,
    /// How the requests ended.
    pub outcomes: Outcomes,
}

/// Saturated throughput: `clients` threads each keep `depth` requests in
/// flight (submitting a new one as soon as the oldest resolves) for
/// `secs`. Every answer is checked, and the outcomes against the
/// service's counters. The workers never run dry, so no vCPU idles
/// between requests: unlike latency at a fixed offered rate, this does
/// not hinge on how fast the host wakes an idle vCPU.
pub fn capacity_phase<S: Scheme>(
    service: &Service<u64, S>,
    seed: u64,
    stream: u64,
    clients: usize,
    depth: usize,
    secs: f64,
    keys: usize,
) -> Result<Capacity, CheckFailed> {
    use crate::mix::{Padded, WARMUP_WINDOWS, WINDOW};
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = AtomicBool::new(false);
    let progress: Vec<Padded> = (0..clients).map(|_| Padded::default()).collect();
    let windows = ((secs / WINDOW.as_secs_f64()).round() as usize).max(WARMUP_WINDOWS + 1);
    let before = slo_snapshot();
    let (window_rps, parts) = std::thread::scope(|s| {
        let hs: Vec<_> = (0..clients)
            .map(|c| {
                let client = service.client();
                let (stop, served) = (&stop, &progress[c].0);
                s.spawn(move || -> Result<Outcomes, CheckFailed> {
                    let mut rng = Rng::new(seed, stream + c as u64);
                    let mut inflight: VecDeque<(Sent, Ticket<u64>)> =
                        VecDeque::with_capacity(depth);
                    let mut out = Outcomes::default();
                    loop {
                        let running = !stop.load(Ordering::Relaxed);
                        while running && inflight.len() < depth {
                            let (idx, is_put) = rng.mix_op(keys);
                            let req = request(seed, idx, is_put);
                            let now = Instant::now();
                            let sent = Sent {
                                seq: out.submitted,
                                due: now,
                                submit: (now, now),
                                idx,
                                is_put,
                            };
                            inflight.push_back((sent, client.submit(req)));
                            out.submitted += 1;
                        }
                        let Some((sent, ticket)) = inflight.pop_front() else {
                            return Ok(out);
                        };
                        let resp = ticket.wait_timeout(SETTLE_TIMEOUT).map_err(|_| {
                            CheckFailed(format!("capacity request {} unresolved", sent.seq))
                        })?;
                        // Refusals and sheds (a host stall past the
                        // deadline) are admission control at work:
                        // counted, not served.
                        match classify(&sent, resp, seed) {
                            Outcome::Wrong => {
                                return Err(CheckFailed(format!(
                                    "capacity request for {} answered wrongly",
                                    sent.idx
                                )))
                            }
                            o => out.count(o),
                        }
                        served.store(out.served, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let total = || {
            progress
                .iter()
                .map(|p| p.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let mut rates = Vec::with_capacity(windows);
        let start = Instant::now();
        let mut prev = (start, total());
        for w in 1..=windows {
            let due = start + WINDOW * w as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = (Instant::now(), total());
            if w > WARMUP_WINDOWS {
                rates.push((now.1 - prev.1) as f64 / (now.0 - prev.0).as_secs_f64());
            }
            prev = now;
        }
        stop.store(true, Ordering::Relaxed);
        let parts: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("capacity client panicked"))
            .collect();
        (rates, parts)
    });
    let mut outcomes = Outcomes::default();
    for p in parts {
        outcomes.add(&p?);
    }
    let slo = SloDelta::between(&slo_snapshot(), &before);
    expect_outcomes("capacity phase", &outcomes, &slo)?;
    Ok(Capacity {
        window_rps,
        outcomes,
    })
}

/// Median latency a ladder rung must stay under. The median, not a
/// tail: on a host that deschedules vCPUs for 10+ ms at a time, every
/// tail quantile of an open-loop run measures those stalls, while the
/// median rises only when the service itself starts to queue.
pub const KNEE_P50_LIMIT_NS: f64 = 1_000_000.0;
/// Share of a rung's requests that must be served.
pub const KNEE_SERVED_SHARE: f64 = 0.99;

/// One rung of the knee ladder and whether it held.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate.
    pub rate: f64,
    /// Median latency, ns.
    pub p50_ns: f64,
    /// Share of requests served.
    pub served_share: f64,
    /// The queue grew: the last quarter's median latency exceeded twice
    /// the second quarter's plus 100 µs.
    pub growing: bool,
}

impl Rung {
    /// The rung met the limit, served its load and its queue held.
    pub fn holds(&self) -> bool {
        self.p50_ns <= KNEE_P50_LIMIT_NS && self.served_share >= KNEE_SERVED_SHARE && !self.growing
    }
}

/// Run `rates` in order until one fails; returns the rungs run.
pub fn ladder<S: Scheme>(
    service: &Service<u64, S>,
    seed: u64,
    rates: &[f64],
    rung_secs: f64,
    keys: usize,
) -> Result<Vec<Rung>, CheckFailed> {
    let mut rungs = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let out = run_phase(
            service,
            seed,
            0x900 + i as u64,
            Phase {
                rate,
                secs: rung_secs,
            },
            keys,
            false,
        )?;
        let (q2, q4) = out.quarter_p50_ns;
        let rung = Rung {
            rate,
            p50_ns: quantile(&out.all_ns(), 0.5).value,
            served_share: out.outcomes.served as f64 / out.outcomes.submitted.max(1) as f64,
            growing: q4 > 2.0 * q2 + 100_000.0,
        };
        rungs.push(rung);
        if !rung.holds() {
            break;
        }
    }
    Ok(rungs)
}

/// The knee: the highest rate that holds. When the first failing rung
/// failed on its median alone, the knee is interpolated linearly between
/// the last holding rung and it, to where the median crosses the limit.
/// `None` when not even the first rung holds.
pub fn knee(rungs: &[Rung]) -> Option<f64> {
    let last_ok = rungs.iter().take_while(|r| r.holds()).last()?;
    let Some(fail) = rungs.iter().find(|r| !r.holds()) else {
        return Some(last_ok.rate);
    };
    if fail.served_share < KNEE_SERVED_SHARE || fail.growing || fail.p50_ns <= last_ok.p50_ns {
        return Some(last_ok.rate);
    }
    let frac = (KNEE_P50_LIMIT_NS - last_ok.p50_ns) / (fail.p50_ns - last_ok.p50_ns);
    Some(last_ok.rate + (fail.rate - last_ok.rate) * frac.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p50_ms: f64, served_share: f64) -> Rung {
        Rung {
            rate,
            p50_ns: p50_ms * 1e6,
            served_share,
            growing: false,
        }
    }

    #[test]
    fn knee_interpolates_on_the_median_and_stops_on_refusals() {
        let r = [
            rung(10e3, 0.3, 1.0),
            rung(20e3, 0.5, 1.0),
            rung(30e3, 1.5, 1.0),
        ];
        assert_eq!(knee(&r), Some(25e3));
        let r = [
            rung(10e3, 0.3, 1.0),
            rung(20e3, 0.5, 1.0),
            rung(30e3, 0.6, 0.9),
        ];
        assert_eq!(knee(&r), Some(20e3));
        let r = [rung(10e3, 0.3, 1.0), rung(20e3, 0.5, 1.0)];
        assert_eq!(knee(&r), Some(20e3));
        assert_eq!(knee(&[rung(10e3, 9.0, 1.0)]), None);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        let h = HistogramSnapshot {
            count: 4,
            sum: 0,
            max: 0,
            buckets: vec![(100, 4)],
        };
        let (lo, hi) = (bucket_lo(100) as f64, bucket_lo(101) as f64);
        assert_eq!(hist_quantile(&h, 0.5), lo + (hi - lo) * 0.5);
        assert_eq!(hist_quantile(&h, 1.0), hi);
    }

    #[test]
    fn outcomes_must_match_the_service_counters() {
        let client = Outcomes {
            submitted: 10,
            served: 7,
            overloaded: 2,
            shed: 1,
            failed: 0,
        };
        let slo = SloDelta {
            requests: 10,
            overloaded: 2,
            shed: 1,
            ..SloDelta::default()
        };
        assert!(expect_outcomes("t", &client, &slo).is_ok());
        // The service counted a request twice.
        let twice = SloDelta {
            requests: 11,
            ..slo.clone()
        };
        assert!(expect_outcomes("t", &client, &twice).is_err());
        // A shed request the service reported as refused.
        let relabeled = SloDelta {
            overloaded: 3,
            shed: 0,
            ..slo.clone()
        };
        assert!(expect_outcomes("t", &client, &relabeled).is_err());
        // A ticket with no outcome.
        let lost = Outcomes {
            served: 6,
            ..client
        };
        assert!(expect_outcomes("t", &lost, &slo).is_err());
    }
}
