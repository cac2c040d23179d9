//! `fault-campaign`: the fault-tolerance stack under seeded faults. For
//! each of the 12 codes one muxed stream runs through the supervised
//! pipeline with adaptive redundancy over the soak channel (transient and
//! parity-evading flips plus a burst), and through a go-back-N link
//! session on the `bursty` Gilbert–Elliott profile.

use std::time::Instant;

use buscode_core::metrics::count_transitions_slice;
use buscode_core::{Access, BusState, CodeKind, CodeParams};
use buscode_fault::campaign::stream_for;
use buscode_fault::GilbertElliott;
use buscode_link::{LinkConfig, LinkSession};
use buscode_pipeline::soak::{SoakChannel, SoakConfig};
use buscode_pipeline::{Channel, Pipeline, PipelineConfig, RedundancyPolicy};
use buscode_trace::StreamKind;

use crate::harness::{PassOut, Transitions, Workload};
use crate::span::Tracer;

/// Words each code drives through the pipeline part of a pass.
pub const PIPELINE_WORDS: usize = 32768;
/// Words each code delivers through the link part of a pass.
pub const LINK_WORDS: usize = 4096;
/// Words per `Pipeline::process` span (the serve batch size).
const BATCH: usize = 256;

/// Counts transitions between the words the encoder drove, before the
/// wrapped channel corrupts them.
struct Metered<'a> {
    inner: &'a mut SoakChannel,
    prev: BusState,
    transitions: u64,
}

impl Channel for Metered<'_> {
    fn transmit(&mut self, word_index: u64, word: BusState) -> BusState {
        self.transitions += u64::from(word.transitions_from(self.prev));
        self.prev = word;
        self.inner.transmit(word_index, word)
    }
}

pub struct FaultCampaign {
    seed: u64,
    params: CodeParams,
    stream: Vec<Access>,
    /// Binary-bus transitions of the pipeline and link parts of one code.
    binary_per_code: u64,
    problems: Vec<String>,
}

fn code_seed(seed: u64, code: usize) -> u64 {
    seed ^ ((code as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl FaultCampaign {
    pub fn new(seed: u64) -> Result<FaultCampaign, String> {
        let params = CodeParams::default();
        let stream = stream_for(StreamKind::Muxed, PIPELINE_WORDS.max(LINK_WORDS), seed);
        let mut binary = CodeKind::Binary
            .encoder(params)
            .map_err(|e| e.to_string())?;
        let mut binary_per_code =
            count_transitions_slice(&mut *binary, &stream[..PIPELINE_WORDS]).total();
        binary.reset();
        binary_per_code += count_transitions_slice(&mut *binary, &stream[..LINK_WORDS]).total();
        Ok(FaultCampaign {
            seed,
            params,
            stream,
            binary_per_code,
            problems: Vec::new(),
        })
    }

    /// Set-up: every code's pipeline, fault channel and link session,
    /// built before the first word is offered.
    fn build(&self, tracer: &mut Tracer) -> Result<Vec<Part>, String> {
        let bursty = GilbertElliott::named("bursty").ok_or("no bursty profile")?;
        let mut parts = Vec::with_capacity(CodeKind::all().len());
        for (ci, code) in CodeKind::all().into_iter().enumerate() {
            let seed = code_seed(self.seed, ci);
            let mut config = PipelineConfig::new(code, self.params);
            config.redundancy = RedundancyPolicy::adaptive();
            let pipeline = tracer
                .span("pipeline.build", 0, 0, |_| Pipeline::new(config))
                .map_err(|e| e.to_string())?;
            let soak = SoakChannel::new(
                SoakConfig::new(seed, PIPELINE_WORDS as u64),
                self.params.width.bits(),
            );
            let mut link_config = LinkConfig::new(code);
            link_config.params = self.params;
            let session = tracer
                .span("link.build", 0, 0, |_| {
                    LinkSession::new(link_config, bursty, seed)
                })
                .map_err(|e| e.to_string())?;
            parts.push((code, pipeline, soak, session));
        }
        Ok(parts)
    }
}

type Part = (CodeKind, Pipeline, SoakChannel, LinkSession);

impl Workload for FaultCampaign {
    fn take_problems(&mut self) -> Vec<String> {
        std::mem::take(&mut self.problems)
    }

    fn setup_ns(&self) -> Result<u64, String> {
        let start = Instant::now();
        let parts = self.build(&mut Tracer::new(false, start))?;
        let ns = start.elapsed().as_nanos() as u64;
        drop(parts);
        Ok(ns)
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        let mask = self.params.width.mask();
        let (mut retries, mut resyncs, mut escalations) = (0u64, 0u64, 0u64);
        let (mut retx, mut link_transitions) = (0u64, 0u64);
        let t0 = Instant::now();
        let parts = self.build(tracer)?;
        out.build_ns = t0.elapsed().as_nanos() as u64;

        for (code, mut pipeline, mut soak, session) in parts {
            // Pipeline part: every returned word is checked.
            let t1 = Instant::now();
            let mut channel = Metered {
                inner: &mut soak,
                prev: BusState::reset(),
                transitions: 0,
            };
            let mut mismatched = 0u64;
            for (bi, batch) in self.stream[..PIPELINE_WORDS].chunks(BATCH).enumerate() {
                let r = tracer.span("pipeline.process", bi as u64, batch.len() as u64, |_| {
                    for access in batch {
                        match pipeline.process(*access, &mut channel) {
                            Ok(word) if word == access.address & mask => {}
                            Ok(_) => mismatched += 1,
                            Err(e) => return Err(e.to_string()),
                        }
                    }
                    Ok(())
                });
                if let Err(e) = r {
                    self.problems.push(format!("{} pipeline: {e}", code.name()));
                    mismatched += 1;
                    break;
                }
            }
            let stats = pipeline.stats();
            let pipeline_failed = (mismatched + stats.unrecovered).min(PIPELINE_WORDS as u64);
            if pipeline_failed > 0 {
                self.problems.push(format!(
                    "{} pipeline: {mismatched} mismatched, {} unrecovered",
                    code.name(),
                    stats.unrecovered
                ));
            }
            retries += stats.retries;
            resyncs += stats.forced_resyncs;
            escalations += stats.escalations;
            out.latencies_ns.push(t1.elapsed().as_nanos() as u64);

            // Link part: exactly-once, in-order delivery of every word.
            let t2 = Instant::now();
            let offered = &self.stream[..LINK_WORDS];
            let outcome = tracer
                .span("link.run", 0, LINK_WORDS as u64, |_| session.run(offered))
                .map_err(|e| e.to_string())?;
            let s = outcome.stats;
            let wrong = outcome
                .delivered
                .iter()
                .zip(offered)
                .filter(|(&d, a)| d != a.address & mask)
                .count() as u64;
            let missing = (LINK_WORDS as u64).saturating_sub(outcome.delivered.len() as u64);
            let extra = (outcome.delivered.len() as u64).saturating_sub(LINK_WORDS as u64);
            let link_failed = (wrong + missing + extra + s.lost_words + s.corrupted_delivered)
                .min(LINK_WORDS as u64);
            if link_failed > 0 || s.delivered_words != LINK_WORDS as u64 {
                self.problems.push(format!(
                    "{} link: {wrong} wrong, {missing} missing, {extra} extra, {} lost, {} corrupted",
                    code.name(),
                    s.lost_words,
                    s.corrupted_delivered
                ));
            }
            retx += s.retransmissions;
            link_transitions += s.total_transitions();
            out.latencies_ns.push(t2.elapsed().as_nanos() as u64);

            out.work_ns += (t1.elapsed()).as_nanos() as u64;
            out.attempted += (PIPELINE_WORDS + LINK_WORDS) as u64;
            out.failed += pipeline_failed + link_failed;
            out.transitions.add(Transitions {
                coded: channel.transitions + s.total_transitions(),
                binary: self.binary_per_code,
            });
        }
        out.words = out.attempted - out.failed;
        out.counters = vec![
            ("pipeline.retries", retries),
            ("pipeline.forced_resyncs", resyncs),
            ("pipeline.escalations", escalations),
            ("link.retransmissions", retx),
            ("link.transitions", link_transitions),
        ];
        Ok(out)
    }
}
