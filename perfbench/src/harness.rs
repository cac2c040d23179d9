//! The pass loop shared by every workload: warm-up, timed passes until
//! the run's time is spent, per-pass samples and the correctness ledger.

use std::time::{Duration, Instant};

use crate::alloc::set_counting;
use crate::span::{Span, Tracer};
use crate::stats::{cpu_ticks, num, peak_rss_mib, percentile, steal_ticks};

/// Bus transitions counted on the words a workload drove, and on a
/// binary bus carrying the same accesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Transitions {
    pub coded: u64,
    pub binary: u64,
}

impl Transitions {
    pub fn add(&mut self, other: Transitions) {
        self.coded += other.coded;
        self.binary += other.binary;
    }

    /// Transitions on the driven bus as a percentage of the binary bus's.
    pub fn bus_pct(&self) -> f64 {
        if self.binary == 0 {
            0.0
        } else {
            100.0 * self.coded as f64 / self.binary as f64
        }
    }

    /// The paper's metric: transitions saved against binary.
    pub fn saved_pct(&self) -> f64 {
        100.0 - self.bus_pct()
    }
}

/// What one pass of a workload did.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Words delivered and verified against the offered stream.
    pub words: u64,
    /// Time spent building the pass's program objects.
    pub build_ns: u64,
    /// Time spent on the work itself (the build excluded).
    pub work_ns: u64,
    /// Operations attempted and failed (see each workload).
    pub attempted: u64,
    pub failed: u64,
    /// One exact duration per request (serve) or per cell (batch).
    pub latencies_ns: Vec<u64>,
    pub transitions: Transitions,
    /// Exact counters that must repeat in every pass.
    pub counters: Vec<(&'static str, u64)>,
}

/// A workload the harness can drive pass by pass.
pub trait Workload {
    fn pass(&mut self, tracer: &mut Tracer) -> Result<PassOut, String>;

    /// Problems found so far beyond the pass counters, emptied.
    fn take_problems(&mut self) -> Vec<String>;

    /// Times one untraced build of a pass's program objects, or 0 for a
    /// workload whose set-up is measured another way.
    fn setup_ns(&self) -> Result<u64, String> {
        Ok(0)
    }

    /// The process doing the work, for its peak resident set.
    fn worker_pid(&self) -> String {
        "self".to_string()
    }

    /// How the run summarizes its per-pass timings.
    fn summary(&self) -> Summary {
        Summary::Best
    }
}

/// Back-to-back set-ups timed before every pass. Spread over the run,
/// they see the same slow phases as the passes and are summarized the
/// same way.
pub const SETUP_REPS: usize = 5;

/// Per-pass samples reserved before the first pass. Growing the record
/// by doubling copied it mid-run at a pass count that depends on speed,
/// and moved the heap layout the program's own allocations land in, so
/// `peak_rss_mib` jumped by up to 0.4 MiB from run to run. Reserved
/// pages become resident only as samples fill them.
const SAMPLES_RESERVED: usize = 1 << 16;

/// How a run turns per-pass timings into one number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Summary {
    /// The best pass: the highest rate, the lowest time. Slow phases on
    /// a shared host last seconds to minutes and can cover most of a
    /// run; the best pass ignores them as long as one pass ran
    /// undisturbed, and a real slowdown still moves it, because it moves
    /// every pass.
    #[default]
    Best,
    /// The median pass: for noise that scatters both ways around a
    /// steady centre, where the fast tail is luck rather than the
    /// undisturbed speed.
    Median,
}

impl Summary {
    /// Summarizes `values`; `higher_is_faster` says which end is best.
    pub fn of(self, values: impl Iterator<Item = f64>, higher_is_faster: bool) -> f64 {
        let mut v: Vec<f64> = values.collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        match self {
            Summary::Median => v[(v.len() - 1) / 2],
            Summary::Best if higher_is_faster => v[v.len() - 1],
            Summary::Best => v[0],
        }
    }

    pub fn describe(self) -> &'static str {
        match self {
            Summary::Best => "best pass",
            Summary::Median => "median",
        }
    }
}

/// The per-pass record kept in the run's output.
#[derive(Clone, Debug)]
pub struct Sample {
    pub traced: bool,
    pub warmup: bool,
    pub words: u64,
    pub work_ns: u64,
    /// The pass's own build, excluded from `work_ns`.
    pub build_ns: u64,
    /// Median of [`SETUP_REPS`] back-to-back set-ups timed before the pass.
    pub setup_ns: u64,
    pub cpu_ticks: u64,
    pub steal_ticks: u64,
    /// Exact per-pass latency percentiles and their sample count.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub latencies: usize,
    /// Peak resident set of the working process after the pass.
    pub rss_mib: f64,
}

impl Sample {
    pub fn words_per_s(&self) -> f64 {
        self.words as f64 * 1e9 / self.work_ns.max(1) as f64
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"traced\":{},\"warmup\":{},\"words\":{},\"work_ns\":{},\"build_ns\":{},\"setup_ns\":{},\"cpu_ticks\":{},\"steal_ticks\":{},\"p50_ns\":{},\"p99_ns\":{},\"latencies\":{},\"rss_mib\":{},\"words_per_s\":{}}}",
            self.traced,
            self.warmup,
            self.words,
            self.work_ns,
            self.build_ns,
            self.setup_ns,
            self.cpu_ticks,
            self.steal_ticks,
            self.p50_ns,
            self.p99_ns,
            self.latencies,
            num(self.rss_mib),
            num(self.words_per_s())
        )
    }
}

/// Everything a run of passes produced.
#[derive(Default)]
pub struct Run {
    pub summary: Summary,
    pub samples: Vec<Sample>,
    /// Latencies of the timed untraced passes of a traced run, in pass
    /// order.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub transitions: Option<Transitions>,
    pub counters: Vec<(&'static str, u64)>,
    pub spans: Vec<Span>,
}

impl Run {
    fn timed(&self, traced: bool) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| !s.warmup && s.traced == traced)
    }

    /// Words per second over the timed passes, summarized.
    pub fn words_per_s(&self, traced: bool) -> f64 {
        self.summary
            .of(self.timed(traced).map(Sample::words_per_s), true)
    }

    /// The per-pass latency percentile, summarized, in nanoseconds.
    pub fn latency_ns(&self, p99: bool) -> f64 {
        let pick = move |s: &Sample| if p99 { s.p99_ns } else { s.p50_ns } as f64;
        self.summary.of(self.timed(false).map(pick), false)
    }

    /// The per-pass set-up time, summarized, in seconds.
    pub fn setup_s(&self) -> f64 {
        let setups = self.samples.iter().map(|s| s.setup_ns as f64 / 1e9);
        self.summary.of(setups, false)
    }

    /// The largest peak resident set of the working process seen after
    /// any pass.
    pub fn rss_mib(&self) -> f64 {
        self.samples.iter().map(|s| s.rss_mib).fold(0.0, f64::max)
    }

    /// Latency samples per timed pass.
    pub fn latencies_per_pass(&self) -> usize {
        self.timed(false).next().map_or(0, |s| s.latencies)
    }

    pub fn timed_passes(&self, traced: bool) -> usize {
        self.timed(traced).count()
    }

    fn record(&mut self, out: PassOut, sample: Sample, keep_latencies: bool) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        match self.transitions {
            None => self.transitions = Some(out.transitions),
            Some(t) if t != out.transitions => self.problems.push(format!(
                "transition counts differ between passes: {t:?} then {:?}",
                out.transitions
            )),
            Some(_) => {}
        }
        if self.counters.is_empty() {
            self.counters = out.counters;
        } else if self.counters != out.counters {
            self.problems.push(format!(
                "exact counters differ between passes: {:?} then {:?}",
                self.counters, out.counters
            ));
        }
        if keep_latencies {
            self.latencies_ns.extend_from_slice(&out.latencies_ns);
        }
        self.samples.push(sample);
    }
}

fn one_pass(
    workload: &mut dyn Workload,
    run: &mut Run,
    traced: bool,
    warmup: bool,
    keep_latencies: bool,
    epoch: Instant,
) -> Result<(), String> {
    let mut setups = (0..SETUP_REPS)
        .map(|_| workload.setup_ns())
        .collect::<Result<Vec<u64>, String>>()?;
    setups.sort_unstable();
    let steal0 = steal_ticks();
    let cpu0 = cpu_ticks("self");
    set_counting(traced);
    let mut tracer = Tracer::new(traced, epoch);
    let out = tracer.span("bench.pass", 0, 0, |t| workload.pass(t));
    set_counting(false);
    let out = out?;
    let mut sorted = out.latencies_ns.clone();
    sorted.sort_unstable();
    let sample = Sample {
        traced,
        warmup,
        words: out.words,
        work_ns: out.work_ns,
        build_ns: out.build_ns,
        setup_ns: setups[SETUP_REPS / 2],
        cpu_ticks: cpu_ticks("self").saturating_sub(cpu0),
        steal_ticks: steal_ticks().saturating_sub(steal0),
        p50_ns: percentile(&sorted, 50.0),
        p99_ns: percentile(&sorted, 99.0),
        latencies: sorted.len(),
        rss_mib: peak_rss_mib(&workload.worker_pid()),
    };
    // Re-base parents onto the run-wide buffer.
    let base = run.spans.len();
    run.spans
        .extend(tracer.spans().iter().cloned().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    // Traced runs keep every untraced request's latency for the
    // per-request split; untraced runs use only the per-pass
    // percentiles, and keep no per-request state that would show in the
    // process's peak resident set.
    let keep = keep_latencies && !traced && !warmup;
    run.record(out, sample, keep);
    Ok(())
}

/// Runs `warmup` untimed passes, then timed passes until `seconds` have
/// passed (at least `min_passes`). With `traced`, timed passes alternate
/// untraced and traced, flipping the order every pair, so the tracing
/// overhead is measured in the same time slices.
pub fn run_passes(
    workload: &mut dyn Workload,
    seconds: f64,
    warmup: u32,
    min_passes: usize,
    traced: bool,
    epoch: Instant,
) -> Result<Run, String> {
    let mut run = Run {
        summary: workload.summary(),
        samples: Vec::with_capacity(SAMPLES_RESERVED),
        ..Run::default()
    };
    for _ in 0..warmup {
        one_pass(workload, &mut run, false, true, traced, epoch)?;
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut pair = 0usize;
    while start.elapsed() < budget || run.samples.len() < warmup as usize + min_passes {
        if traced {
            let order = if pair.is_multiple_of(2) {
                [false, true]
            } else {
                [true, false]
            };
            for t in order {
                one_pass(workload, &mut run, t, false, true, epoch)?;
            }
            pair += 1;
        } else {
            one_pass(workload, &mut run, false, false, false, epoch)?;
        }
    }
    Ok(run)
}
