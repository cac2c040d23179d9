//! `paper-sweep`: the paper's experiment. A pass synthesizes the nine
//! benchmark profiles × instruction/data/muxed streams through
//! `buscode-trace`, then runs all 12 codes over every stream on the
//! sweep engine: `count_transitions_slice` for the paper's metric and
//! `encode_block`/`decode_block` for a verified round trip.

use std::time::Instant;

use buscode_core::metrics::{count_transitions_per_word, count_transitions_slice};
use buscode_core::{
    Access, AccessKind, CodeKind, CodeParams, CodecError, SnapshotDecoder, SnapshotEncoder,
};
use buscode_engine::SweepEngine;
use buscode_trace::{paper_benchmarks, DataModel, InstructionModel, MuxedModel, StreamKind};

use crate::harness::{PassOut, Transitions, Workload};
use crate::span::Tracer;

/// Words per synthesized stream.
pub const STREAM_WORDS: usize = 2048;

const KINDS: [StreamKind; 3] = [StreamKind::Instruction, StreamKind::Data, StreamKind::Muxed];

struct Stream {
    accesses: Vec<Access>,
    kinds: Vec<AccessKind>,
}

/// The profile's calibrated stream model, seeded from the run's seed
/// instead of the profile's fixed one.
fn synthesize(profile: usize, kind: StreamKind, len: usize, seed: u64) -> Vec<Access> {
    let p = &paper_benchmarks()[profile];
    let salt = (profile as u64) << 8 | kind as u64;
    let s = seed ^ p.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    match kind {
        StreamKind::Instruction => InstructionModel::new(p.instr_in_seq).generate(len, s),
        StreamKind::Data => DataModel::new(p.data_in_seq).generate(len, s),
        StreamKind::Muxed => {
            MuxedModel::with_targets(p.instr_in_seq, p.data_in_seq, p.muxed_in_seq).generate(len, s)
        }
    }
}

struct CellOut {
    code: CodeKind,
    work_ns: u64,
    words: u64,
    mismatched: u64,
    transitions: u64,
    problem: Option<String>,
    spans: Tracer,
}

type Codec = (Box<dyn SnapshotEncoder>, Box<dyn SnapshotDecoder>);

fn run_cell(
    stream: &Stream,
    code: CodeKind,
    (mut enc, mut dec): Codec,
    params: CodeParams,
    check_kernel: bool,
    mut tracer: Tracer,
) -> CellOut {
    let n = stream.accesses.len() as u64;
    let start = Instant::now();
    let mut words = Vec::with_capacity(stream.accesses.len());
    let mut decoded = Vec::with_capacity(stream.accesses.len());
    let stats = tracer.span("core.count", 0, n, |_| {
        count_transitions_slice(&mut *enc, &stream.accesses)
    });
    enc.reset();
    tracer.span("core.encode_block", 0, n, |_| {
        enc.encode_block(&stream.accesses, &mut words)
    });
    let decode = tracer.span("core.decode_block", 0, n, |_| {
        dec.decode_block(&words, &stream.kinds, &mut decoded)
    });
    let mask = params.width.mask();
    let mut mismatched = tracer.span("bench.verify", 0, n, |_| match decode {
        Ok(()) if decoded.len() == stream.accesses.len() => stream
            .accesses
            .iter()
            .zip(&decoded)
            .filter(|(a, &d)| a.address & mask != d)
            .count() as u64,
        _ => n,
    });
    let work_ns = start.elapsed().as_nanos() as u64;
    let mut problem = None;
    if check_kernel {
        // The block kernel must agree with the cycle-at-a-time reference.
        let reference = code.encoder(params).map(|mut fresh| {
            count_transitions_per_word(&mut *fresh, stream.accesses.iter().copied())
        });
        if reference.as_ref().ok() != Some(&stats) {
            problem = Some(format!(
                "{}: kernel total {stats:?} != per-word reference {reference:?}",
                code.name()
            ));
            mismatched = n;
        }
    }
    CellOut {
        code,
        work_ns,
        words: n,
        mismatched,
        transitions: stats.total(),
        problem,
        spans: tracer,
    }
}

pub struct PaperSweep {
    seed: u64,
    params: CodeParams,
    engine: SweepEngine,
    /// Whether the kernel-versus-reference check has run (first pass).
    checked: bool,
    problems: Vec<String>,
}

impl PaperSweep {
    pub fn new(seed: u64, jobs: usize) -> PaperSweep {
        PaperSweep {
            seed,
            params: CodeParams::default(),
            engine: SweepEngine::new(jobs),
            checked: false,
            problems: Vec::new(),
        }
    }

    pub fn set_jobs(&mut self, jobs: usize) {
        self.engine = SweepEngine::new(jobs);
    }

    /// Set-up: every cell's codec pair, built before the first word is
    /// offered.
    fn build(&self, tracer: &mut Tracer) -> Result<Vec<(usize, CodeKind, Codec)>, String> {
        let streams = paper_benchmarks().len() * KINDS.len();
        let mut cells = Vec::with_capacity(streams * CodeKind::all().len());
        for s in 0..streams {
            for code in CodeKind::all() {
                let codec = tracer
                    .span("core.build", 0, 0, |_| {
                        Ok::<Codec, CodecError>((
                            code.snapshot_encoder(self.params)?,
                            code.snapshot_decoder(self.params)?,
                        ))
                    })
                    .map_err(|e| format!("{}: {e}", code.name()))?;
                cells.push((s, code, codec));
            }
        }
        Ok(cells)
    }
}

impl Workload for PaperSweep {
    fn take_problems(&mut self) -> Vec<String> {
        std::mem::take(&mut self.problems)
    }

    fn setup_ns(&self) -> Result<u64, String> {
        let start = Instant::now();
        let cells = self.build(&mut Tracer::new(false, start))?;
        let ns = start.elapsed().as_nanos() as u64;
        drop(cells);
        Ok(ns)
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Result<PassOut, String> {
        let start = Instant::now();
        let cells = self.build(tracer)?;
        let build_ns = start.elapsed().as_nanos() as u64;

        let streams_len = paper_benchmarks().len() * KINDS.len();
        let mut streams = Vec::with_capacity(streams_len);
        for profile in 0..paper_benchmarks().len() {
            for kind in KINDS {
                let accesses = tracer.span("trace.synthesize", 0, STREAM_WORDS as u64, |_| {
                    synthesize(profile, kind, STREAM_WORDS, self.seed)
                });
                let kinds = accesses.iter().map(|a| a.kind).collect();
                streams.push(Stream { accesses, kinds });
            }
        }
        let check = !self.checked;
        self.checked = true;
        let params = self.params;
        let engine = self.engine;
        let template = tracer.child();
        let streams = &streams;
        let cells_out = tracer.span("engine.sweep", 0, 0, |t| {
            let mut outs = engine.run(cells, |(s, code, codec)| {
                run_cell(&streams[s], code, codec, params, check, template.child())
            });
            for cell in &mut outs {
                t.absorb(std::mem::replace(&mut cell.spans, template.child()));
            }
            outs
        });
        let elapsed = start.elapsed().as_nanos() as u64;

        let mut out = PassOut {
            build_ns,
            ..PassOut::default()
        };
        let mut binary = 0u64;
        for cell in &cells_out {
            out.attempted += cell.words;
            out.failed += cell.mismatched;
            out.words += cell.words - cell.mismatched;
            out.transitions.coded += cell.transitions;
            out.latencies_ns.push(cell.work_ns);
            if cell.code == CodeKind::Binary {
                binary += cell.transitions;
            }
            if let Some(problem) = &cell.problem {
                self.problems.push(problem.clone());
            }
        }
        out.transitions = Transitions {
            coded: out.transitions.coded,
            binary: binary * CodeKind::all().len() as u64,
        };
        out.work_ns = elapsed.saturating_sub(out.build_ns);
        Ok(out)
    }
}
