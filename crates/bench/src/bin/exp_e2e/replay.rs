//! Phase 2 of the traced run: the scheduler's tick plan is reconstructed
//! from what each `TickOutcome` reported, and replayed call by call on a
//! fresh `ServeEngine` with a span around every engine call. What the
//! scheduler's ticks cost beyond these calls is the scheduler's own time.

use crate::driver::TickRec;
use crate::spec::Req;
use crate::stats::{median, Digest, Stopwatch};
use crate::trace::{spanned, Tracer};
use clusterkv_kvcache::device::Seconds;
use clusterkv_model::policy::SelectorFactory;
use clusterkv_model::{EngineError, ServeEngine, SessionId, SessionReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// The engine calls of one scheduler tick, in the scheduler's order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlannedTick {
    /// Requests that get a session this tick.
    pub admitted: Vec<u64>,
    /// `(request, tokens)` prefill chunks, in admission order.
    pub prefill: Vec<(u64, usize)>,
    /// The fused decode batch, least recently served first.
    pub decode: Vec<u64>,
    /// Requests whose stream completes in this tick's batch.
    pub completed: Vec<u64>,
}

struct Running {
    id: u64,
    fed: usize,
    generated: usize,
    last_decode_tick: usize,
}

/// Rebuild every tick's batch from the admissions the scheduler reported,
/// by the rules of `Scheduler::tick` under FCFS with faults off: decode
/// first (one token per prefilled session, ordered by least recent decode
/// then id), then prefill chunks in admission order while the token budget
/// lasts. Each rebuilt tick must forward exactly the prefill and decode
/// token counts the scheduler reported and complete the same requests.
pub fn reconstruct_plan(
    requests: &[Req],
    ticks: &[TickRec],
    chunk_tokens: usize,
    tick_token_budget: usize,
) -> Result<Vec<PlannedTick>, String> {
    let mut running: Vec<Running> = Vec::new();
    let mut plan = Vec::with_capacity(ticks.len());
    for (index, rec) in ticks.iter().enumerate() {
        let tick = index + 1;
        for &id in &rec.admitted {
            if id as usize >= requests.len() {
                return Err(format!("tick {index} admits unknown request {id}"));
            }
            running.push(Running {
                id,
                fed: 0,
                generated: 0,
                last_decode_tick: 0,
            });
        }
        let mut budget = tick_token_budget;
        let mut decode: Vec<usize> = (0..running.len())
            .filter(|&i| running[i].fed == requests[running[i].id as usize].prompt.len())
            .collect();
        decode.sort_by_key(|&i| (running[i].last_decode_tick, running[i].id));
        decode.truncate(budget);
        budget -= decode.len();
        let mut prefill = Vec::new();
        for r in &mut running {
            let remaining = requests[r.id as usize].prompt.len() - r.fed;
            if budget == 0 || remaining == 0 {
                continue;
            }
            let take = remaining.min(chunk_tokens).min(budget);
            budget -= take;
            r.fed += take;
            prefill.push((r.id, take));
        }
        let decode_ids: Vec<u64> = decode.iter().map(|&i| running[i].id).collect();
        for &i in &decode {
            running[i].generated += 1;
            running[i].last_decode_tick = tick;
        }
        let completed: Vec<u64> = running
            .iter()
            .filter(|r| r.generated >= requests[r.id as usize].max_new)
            .map(|r| r.id)
            .collect();
        running.retain(|r| r.generated < requests[r.id as usize].max_new);
        let planned = PlannedTick {
            admitted: rec.admitted.clone(),
            prefill,
            decode: decode_ids,
            completed,
        };
        let prefill_tokens: usize = planned.prefill.iter().map(|&(_, take)| take).sum();
        if prefill_tokens != rec.prefill_tokens
            || planned.decode.len() != rec.decode_tokens
            || planned.completed != rec.completed
        {
            return Err(format!(
                "tick {index}: rebuilt (prefill {prefill_tokens}, decode {}, completed {:?}) \
                 but the scheduler reported (prefill {}, decode {}, completed {:?})",
                planned.decode.len(),
                planned.completed,
                rec.prefill_tokens,
                rec.decode_tokens,
                rec.completed
            ));
        }
        plan.push(planned);
    }
    if !running.is_empty() {
        return Err(format!("{} requests never completed", running.len()));
    }
    Ok(plan)
}

/// What the engine-driven replay produced and counted.
#[derive(Debug)]
pub struct Replay {
    /// Generated stream per request, by request id.
    pub streams: Vec<Vec<usize>>,
    /// The released sessions' accounting, by request id.
    pub reports: Vec<SessionReport>,
    /// Prompt tokens handed to `prefill_chunk`.
    pub prefill_tokens: usize,
    /// Modeled seconds of those chunks, priced as the scheduler prices them.
    pub modeled_prefill: Seconds,
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
}

impl Replay {
    pub fn digest(&self) -> String {
        let mut digest = Digest::new();
        for (id, tokens) in self.streams.iter().enumerate() {
            digest.write_stream(id as u64, tokens);
        }
        digest.hex()
    }
}

fn engine_err(e: EngineError) -> String {
    format!("replay: {e}")
}

/// Execute `plan` against `engine`, one span per engine call.
pub fn replay(
    engine: &mut ServeEngine,
    requests: &[Req],
    plan: &[PlannedTick],
    tracer: &mut Option<Tracer>,
) -> Result<Replay, String> {
    let latency = engine.latency_model().clone();
    let modeled = |tokens: usize| {
        if tokens == 0 {
            Seconds::zero()
        } else {
            latency.prefill(tokens)
        }
    };
    let mut sessions: BTreeMap<u64, SessionId> = BTreeMap::new();
    let mut fed = vec![0usize; requests.len()];
    let mut streams = vec![Vec::new(); requests.len()];
    let mut reports: Vec<Option<SessionReport>> = requests.iter().map(|_| None).collect();
    let mut prefill_tokens = 0;
    let mut modeled_prefill = Seconds::zero();
    let watch = Stopwatch::start();
    for tick in plan {
        for &id in &tick.admitted {
            let session = spanned(tracer, "model.create_session", Some(id), || {
                engine.create_session()
            })
            .map_err(engine_err)?;
            // The scheduler pins the shareable prefix at admission; the pin
            // decides what the store may evict, so the replay takes it too.
            engine
                .pin_session_prefix(session, &requests[id as usize].prompt)
                .map_err(engine_err)?;
            sessions.insert(id, session);
        }
        for &(id, take) in &tick.prefill {
            let session = sessions[&id];
            let prompt = &requests[id as usize].prompt;
            let (from, to) = (fed[id as usize], fed[id as usize] + take);
            let (_, fast_before) = engine.session_prefix_tokens(session).map_err(engine_err)?;
            spanned(tracer, "model.prefill_chunk", Some(id), || {
                engine.prefill_chunk(session, &prompt[from..to])
            })
            .map_err(engine_err)?;
            let (_, fast_after) = engine.session_prefix_tokens(session).map_err(engine_err)?;
            let computed = take - (fast_after - fast_before);
            modeled_prefill += modeled(to) - modeled(to - computed);
            prefill_tokens += take;
            fed[id as usize] = to;
            if to == prompt.len() {
                spanned(tracer, "model.finish_prefill", Some(id), || {
                    engine.finish_prefill(session)
                })
                .map_err(engine_err)?;
            }
        }
        if !tick.decode.is_empty() {
            let ids: Vec<SessionId> = tick.decode.iter().map(|id| sessions[id]).collect();
            let outputs = spanned(tracer, "model.decode_batch", None, || {
                engine.decode_batch(&ids)
            })
            .map_err(engine_err)?;
            for (&id, output) in tick.decode.iter().zip(&outputs) {
                streams[id as usize].push(output.next_token);
            }
        }
        for &id in &tick.completed {
            let session = sessions
                .remove(&id)
                .ok_or_else(|| format!("replay: request {id} completes without a session"))?;
            let report = spanned(tracer, "model.release", Some(id), || {
                engine.release(session)
            })
            .map_err(engine_err)?;
            reports[id as usize] = Some(report);
        }
    }
    let (wall_s, cpu_s) = (watch.wall_s(), watch.cpu_s());
    let reports = reports
        .into_iter()
        .enumerate()
        .map(|(id, r)| r.ok_or_else(|| format!("replay: request {id} was never released")))
        .collect::<Result<_, _>>()?;
    Ok(Replay {
        streams,
        reports,
        prefill_tokens,
        modeled_prefill,
        wall_s,
        cpu_s,
    })
}

/// Median wall microseconds of one single-session decode step under
/// `factory` (`None`: the engine's own policy), at the context `prompt`
/// leaves behind. The session lives on `engine`, next to the workload's
/// prefix store, and is released before returning.
pub fn single_session_step_us(
    engine: &mut ServeEngine,
    factory: Option<&dyn SelectorFactory>,
    prompt: &[usize],
    steps: usize,
) -> Result<f64, String> {
    let session = match factory {
        Some(f) => engine.create_session_with(f),
        None => engine.create_session(),
    }
    .map_err(engine_err)?;
    engine.prefill(session, prompt).map_err(engine_err)?;
    let mut samples = Vec::with_capacity(steps);
    for _ in 0..steps {
        let start = Instant::now();
        engine.decode_batch(&[session]).map_err(engine_err)?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    engine.release(session).map_err(engine_err)?;
    median(&samples).ok_or_else(|| "no baseline steps were run".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{serve_closed_loop, set_up, stream_digest};
    use crate::spec::{workload, Scale, CHUNK_TOKENS, WORKLOADS};

    fn req(prompt: usize, max_new: usize) -> Req {
        Req {
            prompt: vec![1; prompt],
            max_new,
        }
    }

    fn rec(admitted: &[u64], prefill: usize, decode: usize, completed: &[u64]) -> TickRec {
        TickRec {
            end_ns: 0,
            clock: 0.0,
            prefill_tokens: prefill,
            decode_tokens: decode,
            admitted: admitted.to_vec(),
            completed: completed.to_vec(),
        }
    }

    #[test]
    fn plan_reconstruction_follows_the_scheduler_rules() {
        // Chunk 4, budget 6. Request 0 has 6 prompt tokens and 2 outputs,
        // request 1 has 3 prompt tokens and 1 output.
        let requests = [req(6, 2), req(3, 1)];
        let ticks = [
            // r0 takes a full chunk, r1 the 2 tokens the budget has left.
            rec(&[0, 1], 6, 0, &[]),
            // Both finish their prompts.
            rec(&[], 3, 0, &[]),
            // Both decode; r1 completes.
            rec(&[], 0, 2, &[1]),
            rec(&[], 0, 1, &[0]),
        ];
        let plan = reconstruct_plan(&requests, &ticks, 4, 6).unwrap();
        assert_eq!(plan[0].prefill, vec![(0, 4), (1, 2)]);
        assert_eq!(plan[1].prefill, vec![(0, 2), (1, 1)]);
        assert_eq!(plan[2].decode, vec![0, 1]);
        assert_eq!(plan[2].completed, vec![1]);
        assert_eq!(plan[3].decode, vec![0]);
        assert_eq!(plan[3].completed, vec![0]);
    }

    #[test]
    fn decode_is_served_before_prefill_and_least_recent_first() {
        // Budget 2: the decoding request takes one token of it, leaving one
        // prefill token for the newcomer.
        let requests = [req(1, 3), req(2, 1)];
        let ticks = [
            rec(&[0], 1, 0, &[]),
            rec(&[1], 1, 1, &[]),
            rec(&[], 1, 1, &[]),
            // r1 never decoded (last tick 0) so it goes first.
            rec(&[], 0, 2, &[0, 1]),
        ];
        let plan = reconstruct_plan(&requests, &ticks, 8, 2).unwrap();
        assert_eq!(plan[1].decode, vec![0]);
        assert_eq!(plan[1].prefill, vec![(1, 1)]);
        assert_eq!(plan[3].decode, vec![1, 0]);
    }

    #[test]
    fn plan_reconstruction_rejects_a_diverging_record() {
        let requests = [req(6, 1)];
        let wrong_prefill = [rec(&[0], 5, 0, &[])];
        assert!(reconstruct_plan(&requests, &wrong_prefill, 4, 6)
            .unwrap_err()
            .contains("tick 0"));
        let unknown = [rec(&[3], 0, 0, &[])];
        assert!(reconstruct_plan(&requests, &unknown, 4, 6).is_err());
        let unfinished = [rec(&[0], 4, 0, &[])];
        assert!(reconstruct_plan(&requests, &unfinished, 4, 6)
            .unwrap_err()
            .contains("never completed"));
        let wrong_completion = [rec(&[0], 4, 0, &[]), rec(&[], 2, 0, &[0])];
        assert!(reconstruct_plan(&requests, &wrong_completion, 4, 6).is_err());
    }

    #[test]
    fn replay_reproduces_the_scheduler_streams_on_every_workload() {
        let scale = Scale::tiny();
        for w in &WORKLOADS {
            let inputs = w.inputs(&scale, 21, 2 * w.clients);
            let (mut sched, warm) = set_up(w, &inputs).unwrap();
            let pass =
                serve_closed_loop(&mut sched, &inputs.requests, w.clients, &mut None).unwrap();
            let budget = CHUNK_TOKENS + w.clients;
            let mut engine = w.engine().unwrap();
            if let Some(warm) = &warm {
                let plan = reconstruct_plan(&warm.requests, &warm.pass.ticks, CHUNK_TOKENS, budget)
                    .unwrap();
                replay(&mut engine, &warm.requests, &plan, &mut None).unwrap();
            }
            let plan =
                reconstruct_plan(&inputs.requests, &pass.ticks, CHUNK_TOKENS, budget).unwrap();
            let mut tracer = Some(Tracer::new());
            let replayed = replay(&mut engine, &inputs.requests, &plan, &mut tracer).unwrap();
            assert_eq!(replayed.digest(), stream_digest(&pass.report), "{}", w.name);
            let t = tracer.unwrap();
            assert_eq!(
                t.seconds_of("model.create_session").len(),
                inputs.requests.len()
            );
            assert_eq!(t.seconds_of("model.release").len(), inputs.requests.len());
            assert_eq!(
                t.seconds_of("model.finish_prefill").len(),
                inputs.requests.len()
            );
            let prompt_tokens: usize = inputs.requests.iter().map(|r| r.prompt.len()).sum();
            assert_eq!(replayed.prefill_tokens, prompt_tokens);
            assert!(replayed.modeled_prefill.get() >= 0.0);
            // The sessions' own accounting matches what the scheduler saw.
            for (m, r) in pass.report.requests.iter().zip(&replayed.reports) {
                assert_eq!(m.shared_prefix_tokens, r.shared_prefix_tokens);
                assert_eq!(m.bytes_recalled, r.bytes_recalled());
                assert_eq!(m.tokens.len(), r.generated_tokens);
            }
        }
    }

    #[test]
    fn single_session_steps_run_under_any_policy() {
        let w = workload("docqa_long_decode").unwrap();
        let mut engine = w.engine().unwrap();
        let prompt = vec![3usize; 200];
        let own = single_session_step_us(&mut engine, None, &prompt, 4).unwrap();
        let full = single_session_step_us(
            &mut engine,
            Some(&clusterkv_model::policy::FullAttentionFactory),
            &prompt,
            4,
        )
        .unwrap();
        assert!(own > 0.0 && full > 0.0);
        assert_eq!(engine.num_sessions(), 0);
        assert!(single_session_step_us(&mut engine, None, &prompt, 0).is_err());
    }
}
