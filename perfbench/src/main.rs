//! The buscode layered benchmark.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1 --busserved PATH
//! [--out DIR]` runs one workload (`paper-sweep`, `fault-campaign` or
//! `serve-tcp`), checks every delivered word, and prints one JSON object
//! as its last line of standard output: the end-to-end metrics untraced
//! (`--trace 0`) or the per-layer split (`--trace 1`). Per-pass samples,
//! CPU time, steal ticks and (traced) spans go to files under `DIR`.
//! See `README.md` beside this crate for the metric definitions.

mod alloc;
mod cpu;
mod fault;
mod harness;
mod serve;
mod span;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{run_passes, Run, Workload, SETUP_REPS};
use span::{totals, Span, Tracer};
use stats::{cpu_ticks, median, num, num_array, steal_ticks, TICKS_PER_S};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Untimed passes before timing starts (caches, lazy set-up, page faults).
const WARMUP_PASSES: u32 = 2;
/// Timed passes a run makes even when its time is spent.
const MIN_PASSES: usize = 8;
/// Times `busserved` is started before warm-up for `setup_s`; the last
/// one serves the first passes.
const SERVER_STARTS: usize = 5;
/// Traced passes of each workload the layer split adds to a traced run.
const LAYER_PASSES: usize = 4;
/// Alternating jobs-1 / jobs-2 sweep pairs for `engine.sweep_speedup_j2`.
const SPEEDUP_PAIRS: usize = 3;

/// Spans written to a traced run's `.spans.jsonl` (the first ones); the
/// per-layer metrics use all of them.
const MAX_SPANS_WRITTEN: usize = 100_000;

const WORKLOADS: [&str; 3] = ["paper-sweep", "fault-campaign", "serve-tcp"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    busserved: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        busserved: PathBuf::new(),
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => args.trace = value == "1",
            "--busserved" => args.busserved = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Metrics in print order: name → (value, unit, how it was summarized).
type Metrics = Vec<(&'static str, f64, &'static str, String)>;

/// The outcome of one invocation.
#[derive(Default)]
struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// JSON fields for the record file.
    record: Vec<(String, String)>,
    spans: Vec<Span>,
}

impl Report {
    fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        rule: impl Into<String>,
    ) {
        self.metrics.push((name, value, unit, rule.into()));
    }

    fn absorb_run(&mut self, label: &str, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.problems.extend(run.problems.iter().cloned());
        let samples: Vec<String> = run.samples.iter().map(|s| s.json()).collect();
        self.record.push((
            format!("{label}.samples"),
            format!("[{}]", samples.join(",")),
        ));
        let counters: Vec<String> = run
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        self.record.push((
            format!("{label}.counters"),
            format!("{{{}}}", counters.join(",")),
        ));
        let base = self.spans.len();
        self.spans.extend(run.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// The end-to-end metrics every workload reports from an untraced run.
fn end_to_end(report: &mut Report, run: &Run, setup_s: f64, setup_rule: &str, latency_unit: &str) {
    let passes = run.timed_passes(false);
    let per_pass = run.latencies_per_pass();
    report.metric("setup_s", setup_s, "s", setup_rule);
    report.metric(
        "words_per_s",
        run.words_per_s(false),
        "1/s",
        format!(
            "{} over {passes} timed passes of verified words / pass time",
            run.summary.describe()
        ),
    );
    for (name, p99) in [("latency_p50_us", false), ("latency_p99_us", true)] {
        report.metric(
            name,
            run.latency_ns(p99) / 1e3,
            "us",
            format!(
                "{} over {passes} passes of the exact per-pass {} of {per_pass} {latency_unit} durations",
                run.summary.describe(),
                if p99 { "p99" } else { "p50" }
            ),
        );
    }
    let t = run.transitions.unwrap_or_default();
    report.metric(
        "bus_transitions_pct",
        t.bus_pct(),
        "%",
        format!(
            "exact: {} transitions on the driven bus against {} on a binary bus, i.e. {:.4}% saved",
            t.coded,
            t.binary,
            t.saved_pct()
        ),
    );
    report.metric(
        "ok_pct",
        ok_pct(report.attempted, report.failed),
        "%",
        format!(
            "{} of {} operations succeeded",
            report.attempted - report.failed,
            report.attempted
        ),
    );
    report.metric(
        "peak_rss_mib",
        run.rss_mib(),
        "MiB",
        "largest VmHWM of the working process after any pass",
    );
}

fn ok_pct(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        100.0 * (attempted - failed.min(attempted)) as f64 / attempted as f64
    }
}

/// A batch workload's untraced run.
fn batch(args: &Args, epoch: Instant, mut w: impl Workload, cell: &str) -> Result<Report, String> {
    let run = run_passes(
        &mut w,
        args.seconds,
        WARMUP_PASSES,
        MIN_PASSES,
        false,
        epoch,
    )?;
    let mut report = Report {
        problems: w.take_problems(),
        ..Report::default()
    };
    report.absorb_run("run", &run);
    let rule = format!(
        "{} over every pass of the median of {SETUP_REPS} back-to-back builds of a pass's program objects, timed before the pass",
        run.summary.describe()
    );
    end_to_end(&mut report, &run, run.setup_s(), &rule, cell);
    Ok(report)
}

fn untraced(args: &Args, epoch: Instant) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper-sweep" => batch(
            args,
            epoch,
            sweep::PaperSweep::new(args.seed, 1),
            "cell (one code over one stream)",
        ),
        "fault-campaign" => batch(
            args,
            epoch,
            fault::FaultCampaign::new(args.seed)?,
            "cell (one code's pipeline or link part)",
        ),
        _ => {
            let mut w = serve::ServeTcp::start(&args.busserved, args.seed, SERVER_STARTS)?;
            let mut run = run_passes(
                &mut w,
                args.seconds,
                WARMUP_PASSES,
                MIN_PASSES,
                false,
                epoch,
            )?;
            // The server's bus is not visible from outside: count it on the
            // in-process replay of the same sessions through the same
            // pinned pipelines.
            run.transitions = Some(w.mirror(&mut Tracer::new(false, epoch))?.transitions);
            let server_cpu = w.cpu_ticks();
            let setups = w.setups_ns.clone();
            let mut report = Report {
                problems: w.finish(),
                ..Report::default()
            };
            report.absorb_run("run", &run);
            report
                .record
                .push(("server.cpu_ticks".to_string(), server_cpu.to_string()));
            let rule = format!(
                "median of {} busserved starts ({SERVER_STARTS} before warm-up, then one every {} passes), spawn to first HELLO-OK",
                setups.len(),
                serve::SERVER_PASSES
            );
            let setups: Vec<f64> = setups.iter().map(|&ns| ns as f64).collect();
            report
                .record
                .push(("server.setup_ns".to_string(), num_array(&setups)));
            end_to_end(
                &mut report,
                &run,
                median(&setups) / 1e9,
                &rule,
                "request round trip",
            );
            Ok(report)
        }
    }
}

/// Traced runs: the workload's own passes alternate untraced and traced
/// for the tracing overhead, then the layer split runs short traced
/// passes of every workload so each layer gets its numbers.
fn traced(args: &Args, epoch: Instant) -> Result<Report, String> {
    let mut report = Report::default();
    let own = args.workload.as_str();
    let mut overhead = 0.0;
    let mut split =
        |name: &str, w: &mut dyn Workload, report: &mut Report| -> Result<Run, String> {
            let (seconds, min) = if name == own {
                (args.seconds, MIN_PASSES)
            } else {
                (0.0, LAYER_PASSES)
            };
            let run = run_passes(w, seconds, 1, min, true, epoch)?;
            if name == own {
                let untraced = run.words_per_s(false);
                overhead = 100.0 * (untraced - run.words_per_s(true)) / untraced;
            }
            report.absorb_run(name, &run);
            Ok(run)
        };

    let mut sweep_w = sweep::PaperSweep::new(args.seed, 1);
    split("paper-sweep", &mut sweep_w, &mut report)?;
    report.problems.append(&mut sweep_w.take_problems());

    let mut fault_w = fault::FaultCampaign::new(args.seed)?;
    let fault_run = split("fault-campaign", &mut fault_w, &mut report)?;
    report.problems.append(&mut fault_w.take_problems());

    let mut serve_w = serve::ServeTcp::start(&args.busserved, args.seed, 1)?;
    let server_cpu0 = serve_w.cpu_ticks();
    let client_cpu0 = cpu_ticks("self");
    let serve_run = split("serve-tcp", &mut serve_w, &mut report)?;
    let server_cpu = serve_w.cpu_ticks().saturating_sub(server_cpu0);
    let client_cpu = cpu_ticks("self").saturating_sub(client_cpu0);
    let mut mirror_tracer = Tracer::new(true, epoch);
    alloc::set_counting(true);
    let m = serve_w.mirror(&mut mirror_tracer);
    alloc::set_counting(false);
    let m = m?;
    report.problems.append(&mut serve_w.finish());
    report.spans.extend(mirror_tracer.spans().iter().cloned());

    // engine: the same sweep at jobs 1 and jobs 2, alternating.
    let (mut j1, mut j2) = (Vec::new(), Vec::new());
    for pair in 0..SPEEDUP_PAIRS {
        for jobs in if pair.is_multiple_of(2) {
            [1, 2]
        } else {
            [2, 1]
        } {
            sweep_w.set_jobs(jobs);
            let t = Instant::now();
            sweep_w.pass(&mut Tracer::new(false, epoch))?;
            let ns = t.elapsed().as_nanos() as f64;
            if jobs == 1 {
                j1.push(ns)
            } else {
                j2.push(ns)
            }
        }
    }
    report.problems.append(&mut sweep_w.take_problems());

    layer_metrics(
        &mut report,
        &fault_run,
        &serve_run,
        &m,
        server_cpu,
        client_cpu,
    );
    report.metric(
        "engine.sweep_speedup_j2",
        median(&j1) / median(&j2),
        "x",
        format!("median of {SPEEDUP_PAIRS} jobs-1 sweep passes / median of {SPEEDUP_PAIRS} jobs-2 passes, {} CPUs available", std::thread::available_parallelism().map_or(1, |n| n.get())),
    );
    report.metric(
        "tracing.overhead_pct",
        overhead,
        "%",
        format!("{own}: untraced against traced words/s, each summarized as the workload's end-to-end rule, passes alternating"),
    );
    Ok(report)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics(
    report: &mut Report,
    fault_run: &Run,
    serve_run: &Run,
    m: &serve::Mirror,
    server_cpu: u64,
    client_cpu: u64,
) {
    let t = totals(&report.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let rate_rule = |name: &str| format!("words / total time in {name} spans, traced passes");

    report.metric(
        "trace.words_per_s",
        get("trace.synthesize").words_per_s(),
        "1/s",
        rate_rule("trace.synthesize"),
    );
    let count = get("core.count");
    report.metric(
        "core.count_words_per_s",
        count.words_per_s(),
        "1/s",
        rate_rule("core.count"),
    );
    let (enc, dec) = (get("core.encode_block"), get("core.decode_block"));
    report.metric(
        "core.codec_words_per_s",
        ratio(enc.words as f64 * 1e9, (enc.ns + dec.ns) as f64),
        "1/s",
        "round-tripped words / time in core.encode_block + core.decode_block spans",
    );
    report.metric(
        "core.allocs_per_kword",
        ratio(
            1e3 * (count.allocs + enc.allocs + dec.allocs) as f64,
            count.words as f64,
        ),
        "count",
        "heap allocations inside core.count/encode_block/decode_block per 1000 stream words",
    );
    for (name, span) in [
        ("pipeline.words_per_s.bare", "pipeline.clean.bare"),
        ("pipeline.words_per_s.parity", "pipeline.clean.parity"),
        ("pipeline.words_per_s.ecc", "pipeline.clean.ecc"),
    ] {
        report.metric(
            name,
            get(span).words_per_s(),
            "1/s",
            format!(
                "clean channel, serve-tcp sessions replayed in-process; {}",
                rate_rule(span)
            ),
        );
    }
    let clean: Vec<_> = [
        "pipeline.clean.bare",
        "pipeline.clean.parity",
        "pipeline.clean.ecc",
    ]
    .iter()
    .map(|n| get(n))
    .collect();
    report.metric(
        "pipeline.allocs_per_word",
        ratio(
            clean.iter().map(|c| c.allocs).sum::<u64>() as f64,
            clean.iter().map(|c| c.words).sum::<u64>() as f64,
        ),
        "count",
        "heap allocations per word inside the clean-channel Pipeline::process spans",
    );
    report.metric(
        "pipeline.fault_words_per_s",
        get("pipeline.process").words_per_s(),
        "1/s",
        format!("fault-campaign; {}", rate_rule("pipeline.process")),
    );
    let counter = |name: &str| {
        fault_run
            .counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    };
    for name in [
        "pipeline.retries",
        "pipeline.forced_resyncs",
        "pipeline.escalations",
    ] {
        report.metric(
            name,
            counter(name) as f64,
            "count",
            "exact, one fault-campaign pass summed over the 12 codes",
        );
    }
    let link = get("link.run");
    report.metric(
        "link.words_per_s",
        link.words_per_s(),
        "1/s",
        rate_rule("link.run"),
    );
    report.metric(
        "link.allocs_per_word",
        ratio(link.allocs as f64, link.words as f64),
        "count",
        "heap allocations per word inside link.run spans",
    );
    let link_words = (fault::LINK_WORDS * buscode_core::CodeKind::all().len()) as f64;
    report.metric(
        "link.retx_per_word",
        counter("link.retransmissions") as f64 / link_words,
        "count",
        "exact retransmitted frames per offered word, one pass",
    );
    report.metric(
        "link.transitions_per_word",
        counter("link.transitions") as f64 / link_words,
        "count",
        "exact forward transitions (codec + frame lines) per offered word, one pass",
    );

    let hello: Vec<f64> = report
        .spans
        .iter()
        .filter(|s| s.name == "serve.hello")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    report.metric(
        "serve.hello_us",
        median(&hello),
        "us",
        format!("median of {} HELLO to HELLO-OK spans", hello.len()),
    );
    let wire: Vec<f64> = m.wire_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    report.metric(
        "serve.wire_us_per_batch",
        median(&wire),
        "us",
        "median per batch of Message::encode+decode of its DATA and DECODED frames",
    );
    let served: u64 = serve_run.samples.iter().map(|s| s.words).sum();
    let kwords = served as f64 / 1e3;
    let us_per_tick = 1e6 / TICKS_PER_S;
    report.metric(
        "serve.cpu_us_per_kword",
        ratio(server_cpu as f64 * us_per_tick, kwords),
        "us",
        "busserved utime+stime from /proc/<pid>/stat per 1000 delivered words",
    );
    report.metric(
        "serve.client_cpu_us_per_kword",
        ratio(client_cpu as f64 * us_per_tick, kwords),
        "us",
        "load process utime+stime per 1000 delivered words",
    );
    // Every pass offers the same requests in the same order as the mirror.
    let mirrored = m.pipeline_ns.iter().zip(&m.wire_ns).cycle();
    let overhead: Vec<f64> = serve_run
        .latencies_ns
        .iter()
        .zip(mirrored)
        .map(|(&rtt, (&pipe, &wire))| (rtt as f64 - pipe as f64 - wire as f64) / 1e3)
        .collect();
    report.metric("serve.overhead_us", median(&overhead), "us", format!("median over {} untraced requests of RTT minus the mirrored pipeline and wire time of the same batch", overhead.len()));
}

fn render_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_record(
    args: &Args,
    report: &Report,
    cpu: u64,
    steal: u64,
    wall_s: f64,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut fields: BTreeMap<String, String> = BTreeMap::new();
    fields.insert("workload".into(), json_str(&args.workload));
    fields.insert("seed".into(), args.seed.to_string());
    fields.insert("seconds".into(), num(args.seconds));
    fields.insert("trace".into(), args.trace.to_string());
    fields.insert("wall_s".into(), num(wall_s));
    fields.insert("cpu_ticks".into(), cpu.to_string());
    fields.insert("steal_ticks".into(), steal.to_string());
    fields.insert("ticks_per_s".into(), num(TICKS_PER_S));
    fields.insert("spans".into(), report.spans.len().to_string());
    let span_totals: Vec<String> = totals(&report.spans)
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\":{{\"count\":{},\"ns\":{},\"self_ns\":{},\"words\":{},\"allocs\":{}}}",
                t.count, t.ns, t.self_ns, t.words, t.allocs
            )
        })
        .collect();
    fields.insert(
        "span_totals".into(),
        format!("{{{}}}", span_totals.join(",")),
    );
    fields.insert(
        "spans_written".into(),
        report.spans.len().min(MAX_SPANS_WRITTEN).to_string(),
    );
    let problems: Vec<String> = report.problems.iter().map(|p| json_str(p)).collect();
    fields.insert("problems".into(), format!("[{}]", problems.join(",")));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u, rule)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"rule\":{}}}",
                json_str(n),
                num(*v),
                json_str(u),
                json_str(rule)
            )
        })
        .collect();
    fields.insert("metrics".into(), format!("{{{}}}", metrics.join(",")));
    for (k, v) in &report.record {
        fields.insert(k.clone(), v.clone());
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{{{}}}\n", body.join(",\n")))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    if args.trace {
        // Parents precede their children, so a prefix is self-contained.
        let kept = &report.spans[..report.spans.len().min(MAX_SPANS_WRITTEN)];
        let spans = args.out.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&spans, span::render_jsonl(kept))
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let steal0 = steal_ticks();
    let result = if args.trace {
        traced(&args, epoch)
    } else {
        untraced(&args, epoch)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let record = write_record(
        &args,
        &report,
        cpu_ticks("self"),
        steal_ticks().saturating_sub(steal0),
        epoch.elapsed().as_secs_f64(),
    );
    for (name, value, unit, rule) in &report.metrics {
        println!("{:<30} {:>16} {:<5} {rule}", name, num(*value), unit);
    }
    let mut seen = BTreeMap::new();
    for problem in &report.problems {
        *seen.entry(problem.as_str()).or_insert(0u64) += 1;
    }
    for (problem, times) in seen {
        println!("problem ({times}×): {problem}");
    }
    match record {
        Ok(path) => println!("record: {}", path.display()),
        Err(e) => eprintln!("perfbench: {e}"),
    }
    // A run that measured reports wrong outputs through `"correct"`,
    // not through its exit code.
    println!("{}", render_result(&report));
    ExitCode::SUCCESS
}
