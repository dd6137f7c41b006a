//! The scheduler-driven passes: set-up, the closed loop, and the mapping
//! from the scheduler's modeled timestamps to wall time.

use crate::spec::{Inputs, Req, Scale, Workload};
use crate::stats::{Digest, SplitMix64, Stopwatch};
use crate::trace::{spanned, Tracer};
use clusterkv_model::policy::FullAttentionFactory;
use clusterkv_sched::{Request, RequestMetrics, RequestOutcome, Scheduler, ServingReport};
use std::time::Instant;

/// What the benchmark saw of one `Scheduler::tick`.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRec {
    /// Wall time at which the tick returned, from the start of the pass.
    pub end_ns: u64,
    /// `Scheduler::clock()` after the tick (modeled seconds).
    pub clock: f64,
    pub prefill_tokens: usize,
    pub decode_tokens: usize,
    pub admitted: Vec<u64>,
    pub completed: Vec<u64>,
}

/// One closed-loop pass over a request list.
#[derive(Debug)]
pub struct Pass {
    pub ticks: Vec<TickRec>,
    /// Wall time of each request's `Scheduler::submit`, by request id.
    pub submit_ns: Vec<u64>,
    pub report: ServingReport,
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
}

/// Requests attempted and failed in one phase of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCount {
    pub name: &'static str,
    pub attempted: usize,
    pub failed: usize,
}

impl PhaseCount {
    pub fn of(name: &'static str, report: &ServingReport, requests: &[Req]) -> Self {
        Self {
            name,
            attempted: requests.len(),
            failed: failed_requests(report, requests),
        }
    }
}

fn request(req: &Req, sched: &Scheduler) -> Request {
    Request {
        prompt: req.prompt.clone(),
        max_new_tokens: req.max_new,
        priority: 0,
        // `arrival_time` is modeled time: arriving "now" is the only
        // schedule a wall-clock driver can express, hence the closed loop.
        arrival_time: sched.clock(),
        deadline: None,
    }
}

/// The document request of a document workload's set-up and what it did.
#[derive(Debug)]
pub struct WarmUp {
    pub requests: Vec<Req>,
    pub pass: Pass,
}

/// Build the workload's engine and scheduler and, on document workloads,
/// serve the document once (one output token) so the prefix store holds it.
pub fn set_up(w: &Workload, inputs: &Inputs) -> Result<(Scheduler, Option<WarmUp>), String> {
    let engine = w.engine().map_err(|e| e.to_string())?;
    let mut sched = Scheduler::new(engine, w.sched_config()).map_err(|e| e.to_string())?;
    let warm = match &inputs.doc {
        Some(doc) => {
            let requests = vec![Req {
                prompt: doc.clone(),
                max_new: 1,
            }];
            let pass = serve_closed_loop(&mut sched, &requests, 1, &mut None)?;
            Some(WarmUp { requests, pass })
        }
        None => None,
    };
    Ok((sched, warm))
}

/// [`set_up`], timed in seconds. Without a document a set-up is
/// milliseconds of engine construction, so it is repeated — at least nine
/// times and for `scale.setup_repeat_s`, which also carries the process
/// past the second or so a freshly woken core runs slow — and the median
/// taken; with one, the document warm-up dominates and runs once.
pub fn timed_set_up(
    w: &Workload,
    scale: &Scale,
    inputs: &Inputs,
) -> Result<(Scheduler, Option<WarmUp>, f64), String> {
    let mut seconds = Vec::new();
    let begun = Instant::now();
    let (sched, warm) = loop {
        let start = Instant::now();
        let built = set_up(w, inputs)?;
        seconds.push(start.elapsed().as_secs_f64());
        let enough = seconds.len() >= 9 && begun.elapsed().as_secs_f64() >= scale.setup_repeat_s;
        if inputs.doc.is_some() || enough {
            break built;
        }
    };
    let median = crate::stats::median(&seconds).expect("at least one set-up ran");
    Ok((sched, warm, median))
}

/// Drive `requests` through the scheduler as a closed loop of `clients`:
/// a request is submitted as soon as fewer than `clients` are in flight,
/// and `tick` is called back to back until every request has ended.
pub fn serve_closed_loop(
    sched: &mut Scheduler,
    requests: &[Req],
    clients: usize,
    tracer: &mut Option<Tracer>,
) -> Result<Pass, String> {
    // Request ids restart per scheduler, not per pass: a warmed scheduler
    // has already handed out ids, so positions are offset by the first id.
    let mut first_id = None;
    let mut submit_ns = Vec::with_capacity(requests.len());
    let mut ticks = Vec::new();
    let (mut next, mut done) = (0, 0);
    let watch = Stopwatch::start();
    let origin = Instant::now();
    while done < requests.len() {
        while next < requests.len() && next - done < clients {
            let req = request(&requests[next], sched);
            submit_ns.push(origin.elapsed().as_nanos() as u64);
            let id = spanned(tracer, "sched.submit", Some(next as u64), || {
                sched.submit(req)
            })
            .map_err(|e| format!("request {next} refused: {e}"))?;
            let base = *first_id.get_or_insert(id.0);
            if id.0 != base + next as u64 {
                return Err(format!(
                    "request {next} got id {id}, expected r{}",
                    base + next as u64
                ));
            }
            next += 1;
        }
        let outcome = spanned(tracer, "sched.tick", None, || sched.tick())
            .map_err(|e| format!("tick {} failed: {e}", ticks.len()))?;
        let end_ns = origin.elapsed().as_nanos() as u64;
        let base = first_id.expect("a request was submitted before the first tick");
        done += outcome.completed.len() + outcome.cancelled.len();
        ticks.push(TickRec {
            end_ns,
            clock: sched.clock().get(),
            prefill_tokens: outcome.prefill_tokens,
            decode_tokens: outcome.decode_tokens,
            admitted: outcome.admitted.iter().map(|id| id.0 - base).collect(),
            completed: outcome.completed.iter().map(|id| id.0 - base).collect(),
        });
    }
    let wall_s = watch.wall_s();
    let cpu_s = watch.cpu_s();
    let base = first_id.unwrap_or(0);
    let mut report = spanned(tracer, "sched.report", None, || sched.report());
    // Keep this pass's requests only, re-based to positions.
    report.requests.retain(|r| r.id.0 >= base);
    for r in &mut report.requests {
        r.id.0 -= base;
    }
    Ok(Pass {
        ticks,
        submit_ns,
        report,
        wall_s,
        cpu_s,
    })
}

fn delivered_in_full(m: &RequestMetrics, req: &Req) -> bool {
    m.outcome == RequestOutcome::Completed
        && m.tokens.len() == req.max_new
        && m.prompt_len == req.prompt.len()
}

/// Requests that did not end `Completed` with their full stream.
pub fn failed_requests(report: &ServingReport, requests: &[Req]) -> usize {
    let ok = report
        .requests
        .iter()
        .filter(|m| {
            requests
                .get(m.id.0 as usize)
                .is_some_and(|req| delivered_in_full(m, req))
        })
        .count();
    requests.len() - ok.min(requests.len())
}

/// FNV-1a64 over every generated stream, in request order.
pub fn stream_digest(report: &ServingReport) -> String {
    let mut digest = Digest::new();
    for m in &report.requests {
        digest.write_stream(m.id.0, &m.tokens);
    }
    digest.hex()
}

/// Index of the tick after which the modeled clock read `first_token_at`.
/// The scheduler stamps a first token with the clock at the end of the tick
/// that decoded it, and the clock strictly advances on every decoding tick,
/// so the match is exact and unique.
pub fn first_token_tick(clocks: &[f64], first_token_at: f64) -> Option<usize> {
    let i = clocks.partition_point(|&c| c < first_token_at);
    (clocks.get(i) == Some(&first_token_at)).then_some(i)
}

/// Wall-clock TTFT of every request in milliseconds: `submit` → end of the
/// tick that produced its first token.
pub fn ttft_ms(pass: &Pass) -> Result<Vec<f64>, String> {
    let clocks: Vec<f64> = pass.ticks.iter().map(|t| t.clock).collect();
    pass.report
        .requests
        .iter()
        .map(|m| {
            let at = m
                .first_token_at
                .ok_or_else(|| format!("request {} produced no token", m.id))?;
            let tick = first_token_tick(&clocks, at.get())
                .ok_or_else(|| format!("no tick ends at first_token_at of request {}", m.id))?;
            let submit = pass.submit_ns[m.id.0 as usize];
            Ok((pass.ticks[tick].end_ns - submit) as f64 * 1e-6)
        })
        .collect()
}

/// One sample per decoded token: the wall duration, in microseconds, of the
/// tick that produced it (end of the previous tick → end of this one).
pub fn tbt_us(ticks: &[TickRec]) -> Vec<f64> {
    let mut samples = Vec::new();
    let mut previous = 0;
    for t in ticks {
        let us = (t.end_ns - previous) as f64 * 1e-3;
        samples.extend(std::iter::repeat_n(us, t.decode_tokens));
        previous = t.end_ns;
    }
    samples
}

/// Seed of the quality probe. Fixed, not derived from `--seed`: the probe
/// guards what attends, which no workload seed should move.
const PROBE_SEED: u64 = 0x70b1_a6ee;

/// Teacher-forced agreement with full attention: one seeded prompt is
/// prefilled into a session of the workload's policy and into a
/// full-attention session of the same engine, both are fed the same seeded
/// token at every step, and the share of steps whose greedy `next_token`
/// agree is returned. (Free-running streams diverge within a dozen tokens
/// on synthetic weights and would measure nothing.)
pub fn top1_agree_full(w: &Workload, scale: &Scale) -> Result<f64, String> {
    let err = |e: clusterkv_model::EngineError| e.to_string();
    let mut engine = w.engine().map_err(err)?;
    let vocab = engine.config().vocab_size;
    let mut rng = SplitMix64::new(PROBE_SEED);
    let prompt = rng.tokens(scale.probe_prompt, vocab);
    let fed = rng.tokens(scale.probe_steps, vocab);
    let policy = engine.create_session().map_err(err)?;
    engine.prefill(policy, &prompt).map_err(err)?;
    // The second prefill adopts the first one's KV from the prefix store;
    // prefill attends densely under every policy, so the rows are the same.
    let full = engine
        .create_session_with(&FullAttentionFactory)
        .map_err(err)?;
    engine.prefill(full, &prompt).map_err(err)?;
    let mut agree = 0;
    for &token in &fed {
        let a = engine.decode_step(policy, token).map_err(err)?;
        let b = engine.decode_step(full, token).map_err(err)?;
        agree += usize::from(a.next_token == b.next_token);
    }
    Ok(agree as f64 / fed.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    #[test]
    fn first_token_tick_maps_the_modeled_clock_exactly() {
        // Ticks 1 and 3 decoded nothing, so the clock did not move there.
        let clocks = [0.5, 0.5, 1.25, 1.25, 2.0];
        assert_eq!(first_token_tick(&clocks, 0.5), Some(0));
        assert_eq!(first_token_tick(&clocks, 1.25), Some(2));
        assert_eq!(first_token_tick(&clocks, 2.0), Some(4));
        assert_eq!(first_token_tick(&clocks, 1.0), None);
        assert_eq!(first_token_tick(&clocks, 3.0), None);
        assert_eq!(first_token_tick(&[], 0.0), None);
    }

    #[test]
    fn tbt_has_one_sample_per_decoded_token() {
        let tick = |end_ns, decode_tokens| TickRec {
            end_ns,
            clock: 0.0,
            prefill_tokens: 0,
            decode_tokens,
            admitted: Vec::new(),
            completed: Vec::new(),
        };
        let samples = tbt_us(&[tick(2_000, 0), tick(5_000, 2), tick(6_000, 1)]);
        assert_eq!(samples, vec![3.0, 3.0, 1.0]);
    }

    #[test]
    fn closed_loop_keeps_at_most_k_requests_in_flight_and_maps_ttft() {
        let w = workload("chat_mixed_batch").unwrap();
        let scale = Scale::tiny();
        let inputs = w.inputs(&scale, 11, 12);
        let (mut sched, warm) = set_up(w, &inputs).unwrap();
        assert!(warm.is_none());
        let mut tracer = Some(Tracer::new());
        let pass = serve_closed_loop(&mut sched, &inputs.requests, 3, &mut tracer).unwrap();
        assert_eq!(failed_requests(&pass.report, &inputs.requests), 0);
        assert_eq!(pass.report.requests.len(), 12);
        // Never more than 3 admitted-and-unfinished at once.
        let mut in_flight = 0usize;
        for t in &pass.ticks {
            in_flight += t.admitted.len();
            assert!(in_flight <= 3);
            in_flight -= t.completed.len();
        }
        let ttft = ttft_ms(&pass).unwrap();
        assert_eq!(ttft.len(), 12);
        assert!(ttft.iter().all(|&ms| ms > 0.0));
        let generated: usize = inputs.requests.iter().map(|r| r.max_new).sum();
        assert_eq!(tbt_us(&pass.ticks).len(), generated);
        let t = tracer.unwrap();
        assert_eq!(t.seconds_of("sched.submit").len(), 12);
        assert_eq!(t.seconds_of("sched.tick").len(), pass.ticks.len());
        assert_eq!(t.seconds_of("sched.report").len(), 1);
        // A second pass on a fresh scheduler reproduces the streams.
        let (mut again, _) = set_up(w, &inputs).unwrap();
        let repeat = serve_closed_loop(&mut again, &inputs.requests, 3, &mut None).unwrap();
        assert_eq!(stream_digest(&repeat.report), stream_digest(&pass.report));
        assert_eq!(
            repeat
                .ticks
                .iter()
                .map(|t| t.clock.to_bits())
                .collect::<Vec<_>>(),
            pass.ticks
                .iter()
                .map(|t| t.clock.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn document_set_up_donates_the_document_and_rebases_ids() {
        let w = workload("docqa_long_decode").unwrap();
        let scale = Scale::tiny();
        let inputs = w.inputs(&scale, 5, 2);
        let (mut sched, warm) = set_up(w, &inputs).unwrap();
        let warm = warm.unwrap();
        let count = PhaseCount::of("setup", &warm.pass.report, &warm.requests);
        assert_eq!((count.attempted, count.failed), (1, 0));
        let pass = serve_closed_loop(&mut sched, &inputs.requests, w.clients, &mut None).unwrap();
        assert_eq!(pass.report.requests.len(), 2);
        assert_eq!(pass.report.requests[0].id.0, 0);
        assert_eq!(failed_requests(&pass.report, &inputs.requests), 0);
        for m in &pass.report.requests {
            assert!(m.shared_prefix_tokens >= scale.doc_tokens);
        }
    }

    #[test]
    fn a_short_stream_counts_as_failed() {
        let w = workload("cold_prefill").unwrap();
        let inputs = w.inputs(&Scale::tiny(), 2, 2);
        let (mut sched, _) = set_up(w, &inputs).unwrap();
        let mut pass = serve_closed_loop(&mut sched, &inputs.requests, 2, &mut None).unwrap();
        assert_eq!(failed_requests(&pass.report, &inputs.requests), 0);
        pass.report.requests[1].tokens.pop();
        assert_eq!(failed_requests(&pass.report, &inputs.requests), 1);
        pass.report.requests[0].outcome = RequestOutcome::TimedOut;
        assert_eq!(failed_requests(&pass.report, &inputs.requests), 2);
    }

    #[test]
    fn the_quality_probe_is_deterministic_and_a_share() {
        let scale = Scale::tiny();
        for w in &WORKLOADS {
            let a = top1_agree_full(w, &scale).unwrap();
            assert!((0.0..=1.0).contains(&a), "{}: {a}", w.name);
            assert_eq!(a, top1_agree_full(w, &scale).unwrap(), "{}", w.name);
        }
    }
}
