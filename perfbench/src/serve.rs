//! `serve-tcp`: `busserved` as its own process on loopback TCP, driven by
//! two closed-loop connections. Each connection keeps one 256-word DATA
//! request outstanding and walks the 12 codes × bare/parity/ECC as
//! successive sessions, one HELLO per session.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

use buscode_core::metrics::count_transitions_slice;
use buscode_core::{Access, BusState, CodeKind, CodeParams, Tier};
use buscode_pipeline::{clean_channel, Channel, Pipeline, PipelineConfig};
use buscode_serve::{
    session_workload, shutdown_server, ClientConfig, ClientSession, Message, TcpTransport,
};

use crate::cpu::{first_allowed, pin, pin_command};
use crate::harness::{PassOut, Summary, Transitions, Workload};
use crate::span::Tracer;
use crate::stats::cpu_ticks;

/// Closed-loop connections, each on its own thread.
const CONNECTIONS: usize = 2;
/// Words per DATA request.
const BATCH: usize = 256;
/// DATA requests per session.
const REQUESTS_PER_SESSION: usize = 32;
/// Refresh interval the server uses when a HELLO asks for its default.
const SERVER_REFRESH: u64 = 64;

/// A running `busserved` child process.
struct Server {
    child: Child,
    /// Held open for the server's life, so a late write to its stderr
    /// cannot fail with a broken pipe.
    stderr: BufReader<ChildStderr>,
    addr: String,
    /// Sessions this benchmark opened, and words it saw delivered.
    sessions: u64,
    words: u64,
}

/// The server's own counters, read from its `--metrics json` snapshot
/// after the drain.
struct ServerCounters {
    requests: u64,
    delivered_frames: u64,
    delivered_words: u64,
    shed_frames: u64,
    expired_frames: u64,
    sessions_opened: u64,
    internal_errors: u64,
    protocol_errors: u64,
}

fn counter(snapshot: &str, name: &str) -> Result<u64, String> {
    let key = format!("\"{name}\":{{\"kind\":\"counter\",\"value\":");
    let at = snapshot
        .find(&key)
        .ok_or_else(|| format!("metric {name} missing from busserved snapshot"))?;
    let digits: String = snapshot[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("metric {name} is not a count"))
}

fn connect(addr: &str) -> Result<Box<TcpTransport>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    TcpTransport::new(stream)
        .map(Box::new)
        .map_err(|e| e.to_string())
}

fn open(addr: &str, config: &ClientConfig) -> Result<ClientSession, String> {
    ClientSession::open(connect(addr)?, config).map_err(|e| e.to_string())
}

impl Server {
    /// Starts `busserved` with its default single worker and returns it
    /// with the time from spawn to the first HELLO-OK.
    fn spawn(bin: &Path, cpu: Option<usize>) -> Result<(Server, u64), String> {
        let start = Instant::now();
        let mut command = Command::new(bin);
        command
            .args(["--listen", "127.0.0.1:0", "--quiet", "--metrics", "json"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(cpu) = cpu {
            pin_command(&mut command, cpu);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().ok_or("busserved stderr not piped")?;
        let mut server = Server {
            child,
            stderr: BufReader::new(stderr),
            addr: String::new(),
            sessions: 0,
            words: 0,
        };
        let mut line = String::new();
        server
            .stderr
            .read_line(&mut line)
            .map_err(|e| format!("read busserved stderr: {e}"))?;
        server.addr = line
            .trim()
            .rsplit_once("listening on ")
            .map(|(_, a)| a.to_string())
            .ok_or_else(|| format!("busserved did not report its address: {line:?}"))?;
        let session = open(&server.addr, &ClientConfig::default())?;
        let ns = start.elapsed().as_nanos() as u64;
        server.sessions += 1;
        session.close().map_err(|e| e.to_string())?;
        Ok((server, ns))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn cpu_ticks(&self) -> u64 {
        cpu_ticks(&self.pid())
    }

    /// Drains the server with the admin SHUTDOWN frame, waits for it to
    /// exit, and checks its accounting against this client's.
    fn shutdown(mut self) -> Result<(), String> {
        shutdown_server(connect(&self.addr)?).map_err(|e| e.to_string())?;
        let mut snapshot = String::new();
        if let Some(mut out) = self.child.stdout.take() {
            out.read_to_string(&mut snapshot)
                .map_err(|e| format!("read busserved stdout: {e}"))?;
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("busserved exited with {status}"));
        }
        let c = ServerCounters {
            requests: counter(&snapshot, "serve.requests")?,
            delivered_frames: counter(&snapshot, "serve.delivered_frames")?,
            delivered_words: counter(&snapshot, "serve.delivered_words")?,
            shed_frames: counter(&snapshot, "serve.shed_frames")?,
            expired_frames: counter(&snapshot, "serve.expired_frames")?,
            sessions_opened: counter(&snapshot, "serve.sessions_opened")?,
            internal_errors: counter(&snapshot, "serve.internal_errors")?,
            protocol_errors: counter(&snapshot, "serve.protocol_errors")?,
        };
        let mut problems = Vec::new();
        if c.requests != c.delivered_frames + c.shed_frames + c.expired_frames {
            problems.push(format!(
                "requests {} != delivered {} + shed {} + expired {}",
                c.requests, c.delivered_frames, c.shed_frames, c.expired_frames
            ));
        }
        if c.delivered_words != self.words {
            problems.push(format!(
                "server delivered {} words, client received {}",
                c.delivered_words, self.words
            ));
        }
        if c.sessions_opened != self.sessions {
            problems.push(format!(
                "server opened {} sessions, client {}",
                c.sessions_opened, self.sessions
            ));
        }
        if c.internal_errors + c.protocol_errors > 0 {
            problems.push(format!(
                "{} internal and {} protocol errors",
                c.internal_errors, c.protocol_errors
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached with the child still running when the run failed
        // before its drain: stop it so no process outlives the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One session a connection walks.
struct Plan {
    code: CodeKind,
    tier: Tier,
    stream: Vec<Access>,
}

/// The session walks of both connections: every connection visits the
/// 36 code × tier sessions, starting half-way round from its neighbour.
fn plans(seed: u64) -> Vec<Vec<Plan>> {
    let sessions: Vec<(CodeKind, Tier)> = CodeKind::all()
        .into_iter()
        .flat_map(|c| Tier::all().iter().map(move |&t| (c, t)))
        .collect();
    (0..CONNECTIONS)
        .map(|c| {
            (0..sessions.len())
                .map(|i| {
                    let (code, tier) =
                        sessions[(i + c * sessions.len() / CONNECTIONS) % sessions.len()];
                    let s = seed ^ ((c * 64 + i) as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    Plan {
                        code,
                        tier,
                        stream: session_workload(BATCH * REQUESTS_PER_SESSION, s),
                    }
                })
                .collect()
        })
        .collect()
}

#[derive(Default)]
struct ConnOut {
    words: u64,
    sessions: u64,
    attempted: u64,
    failed: u64,
    rtts: Vec<u64>,
    problems: Vec<String>,
}

fn walk(addr: &str, plans: &[Plan], conn: usize, tracer: &mut Tracer) -> ConnOut {
    let mut out = ConnOut::default();
    let mask = CodeParams::default().width.mask();
    for (si, plan) in plans.iter().enumerate() {
        let req_base = ((conn as u64) << 32) | ((si as u64) << 16);
        let config = ClientConfig {
            code: plan.code,
            tier: plan.tier,
            ..ClientConfig::default()
        };
        let batches = plan.stream.len().div_ceil(BATCH) as u64;
        out.attempted += 1 + batches;
        let mut session = match tracer.span("serve.hello", req_base, 0, |_| open(addr, &config)) {
            Ok(session) => session,
            Err(e) => {
                out.failed += 1 + batches;
                out.problems
                    .push(format!("{} {}: {e}", plan.code.name(), plan.tier.name()));
                continue;
            }
        };
        out.sessions += 1;
        let mut delivered = 0u64;
        let mut dead = None;
        for (r, batch) in plan.stream.chunks(BATCH).enumerate() {
            let req = req_base | (r as u64 + 1);
            let n = batch.len() as u64;
            let t = Instant::now();
            let reply = tracer.span("serve.request", req, n, |t| {
                let seq = t.span("serve.send_data", req, n, |_| session.send_data(batch))?;
                let reply = t.span("serve.recv_reply", req, n, |_| session.recv_reply())?;
                Ok::<_, buscode_serve::ClientError>((seq, reply))
            });
            let rtt = t.elapsed().as_nanos() as u64;
            match reply {
                Ok((
                    seq,
                    Message::Decoded {
                        seq: got,
                        addresses,
                    },
                )) if got == seq => {
                    out.rtts.push(rtt);
                    let right = addresses.len() == batch.len()
                        && addresses
                            .iter()
                            .zip(batch)
                            .all(|(&d, a)| d == a.address & mask);
                    // The server delivered the words either way; the
                    // drain accounting compares against this total.
                    out.words += addresses.len() as u64;
                    delivered += addresses.len() as u64;
                    if !right {
                        out.failed += 1;
                        out.problems.push(format!(
                            "{} {}: wrong words in request {r}",
                            plan.code.name(),
                            plan.tier.name()
                        ));
                    }
                }
                Ok((_, Message::RetryAfter { .. })) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{} {}: request {r} shed",
                        plan.code.name(),
                        plan.tier.name()
                    ));
                }
                Ok((_, other)) => {
                    dead = Some(format!("unexpected reply {other:?}"));
                }
                Err(e) => dead = Some(e.to_string()),
            }
            if let Some(why) = &dead {
                // The session is gone: every request not answered fails.
                out.failed += batches - r as u64;
                out.problems.push(format!(
                    "{} {}: session died: {why}",
                    plan.code.name(),
                    plan.tier.name()
                ));
                break;
            }
        }
        if dead.is_none() {
            match tracer.span("serve.close", req_base, 0, |_| session.close()) {
                Ok((words, 0)) if words == delivered => {}
                Ok((words, shed)) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{} {}: server closed with {words} words, {shed} shed; client saw {delivered}",
                        plan.code.name(),
                        plan.tier.name()
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{} {}: close failed: {e}",
                        plan.code.name(),
                        plan.tier.name()
                    ));
                }
            }
        }
    }
    out
}

/// Passes one `busserved` process serves before a fresh one replaces it.
/// The server keeps every finished session's reader thread until it
/// drains, so its memory grows with sessions served; a fixed number of
/// passes per process keeps `peak_rss_mib` a measure of fixed work, and
/// spreading a run over several processes averages out how each one's
/// threads happened to be placed.
pub const SERVER_PASSES: usize = 8;

pub struct ServeTcp {
    bin: PathBuf,
    /// The CPU the server and the connection threads share.
    cpu: Option<usize>,
    server: Server,
    passes_on_server: usize,
    /// Spawn-to-first-HELLO-OK time of every server started.
    pub setups_ns: Vec<u64>,
    /// CPU ticks of the servers already drained.
    drained_cpu: u64,
    plans: Vec<Vec<Plan>>,
    problems: Vec<String>,
}

impl ServeTcp {
    /// Starts `starts` servers one after another, timing each start;
    /// the last one serves the first passes.
    pub fn start(bin: &Path, seed: u64, starts: usize) -> Result<ServeTcp, String> {
        let cpu = first_allowed();
        let (server, ns) = Server::spawn(bin, cpu)?;
        let mut w = ServeTcp {
            bin: bin.to_path_buf(),
            cpu,
            server,
            passes_on_server: 0,
            setups_ns: vec![ns],
            drained_cpu: 0,
            plans: plans(seed),
            problems: Vec::new(),
        };
        for _ in 1..starts {
            w.rotate()?;
        }
        Ok(w)
    }

    /// Starts a fresh server, then drains the old one and checks its
    /// accounting.
    fn rotate(&mut self) -> Result<(), String> {
        let (next, ns) = Server::spawn(&self.bin, self.cpu)?;
        self.setups_ns.push(ns);
        self.passes_on_server = 0;
        let old = std::mem::replace(&mut self.server, next);
        self.drained_cpu += old.cpu_ticks();
        if let Err(e) = old.shutdown() {
            self.problems.push(format!("busserved drain check: {e}"));
        }
        Ok(())
    }

    /// CPU ticks of every server this run started.
    pub fn cpu_ticks(&self) -> u64 {
        self.drained_cpu + self.server.cpu_ticks()
    }

    /// Drains the serving process; returns the problems found.
    pub fn finish(self) -> Vec<String> {
        let mut problems = self.problems;
        if let Err(e) = self.server.shutdown() {
            problems.push(format!("busserved drain check: {e}"));
        }
        problems
    }

    /// Replays the sessions in-process (see [`mirror`]); a wrong word
    /// there is a problem of the run.
    pub fn mirror(&mut self, tracer: &mut Tracer) -> Result<Mirror, String> {
        let m = mirror(&self.plans, tracer)?;
        if m.mismatched > 0 {
            self.problems.push(format!(
                "in-process replay decoded {} wrong words",
                m.mismatched
            ));
        }
        Ok(m)
    }
}

impl Workload for ServeTcp {
    fn take_problems(&mut self) -> Vec<String> {
        std::mem::take(&mut self.problems)
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Result<PassOut, String> {
        if self.passes_on_server == SERVER_PASSES {
            self.rotate()?;
        }
        self.passes_on_server += 1;
        let start = Instant::now();
        let addr = self.server.addr.as_str();
        let plans = &self.plans;
        let template = tracer.child();
        let cpu = self.cpu;
        let conns: Vec<(ConnOut, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(c, plan)| {
                    let mut t = template.child();
                    scope.spawn(move || {
                        if let Some(cpu) = cpu {
                            pin(cpu);
                        }
                        (walk(addr, plan, c, &mut t), t)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        let failed = ConnOut {
                            failed: 1,
                            problems: vec!["connection thread panicked".to_string()],
                            ..ConnOut::default()
                        };
                        (failed, template.child())
                    })
                })
                .collect()
        });
        let mut out = PassOut {
            work_ns: start.elapsed().as_nanos() as u64,
            ..PassOut::default()
        };
        for (conn, spans) in conns {
            tracer.absorb(spans);
            out.words += conn.words;
            out.attempted += conn.attempted;
            out.failed += conn.failed;
            out.latencies_ns.extend(conn.rtts);
            self.server.sessions += conn.sessions;
            self.server.words += conn.words;
            self.problems.extend(conn.problems);
        }
        Ok(out)
    }

    /// Scheduling jitter on the client, server and accept loop scatters
    /// passes both ways; the fast tail is lucky alignment, so the median
    /// is the steadier centre here.
    fn summary(&self) -> Summary {
        Summary::Median
    }

    fn worker_pid(&self) -> String {
        self.server.pid()
    }
}

/// Counts transitions on the words the encoder drove over a clean bus.
struct Metered<C> {
    inner: C,
    prev: BusState,
    transitions: u64,
}

impl<C: Channel> Channel for Metered<C> {
    fn transmit(&mut self, word_index: u64, word: BusState) -> BusState {
        self.transitions += u64::from(word.transitions_from(self.prev));
        self.prev = word;
        self.inner.transmit(word_index, word)
    }
}

/// The in-process mirror of the server's work: the same sessions through
/// the same pinned pipelines, plus the wire encode/decode of every batch.
pub struct Mirror {
    /// Per request, in pass order: pipeline and wire nanoseconds.
    pub pipeline_ns: Vec<u64>,
    pub wire_ns: Vec<u64>,
    pub transitions: Transitions,
    pub mismatched: u64,
}

fn tier_span(tier: Tier) -> &'static str {
    match tier {
        Tier::Bare => "pipeline.clean.bare",
        Tier::Parity => "pipeline.clean.parity",
        Tier::Ecc => "pipeline.clean.ecc",
    }
}

fn mirror(plans: &[Vec<Plan>], tracer: &mut Tracer) -> Result<Mirror, String> {
    let params = CodeParams::default();
    let mask = params.width.mask();
    let mut m = Mirror {
        pipeline_ns: Vec::new(),
        wire_ns: Vec::new(),
        transitions: Transitions::default(),
        mismatched: 0,
    };
    for plan in plans.iter().flatten() {
        let config = PipelineConfig::fixed_tier(plan.code, params, plan.tier, SERVER_REFRESH);
        let mut pipeline = Pipeline::new(config).map_err(|e| e.to_string())?;
        let mut channel = Metered {
            inner: clean_channel(),
            prev: BusState::reset(),
            transitions: 0,
        };
        for (r, batch) in plan.stream.chunks(BATCH).enumerate() {
            let n = batch.len() as u64;
            let t = Instant::now();
            let decoded = tracer.span(tier_span(plan.tier), 0, n, |_| {
                batch
                    .iter()
                    .map(|a| pipeline.process(*a, &mut channel))
                    .collect::<Result<Vec<u64>, _>>()
            });
            m.pipeline_ns.push(t.elapsed().as_nanos() as u64);
            let decoded = decoded.map_err(|e| e.to_string())?;
            m.mismatched += decoded
                .iter()
                .zip(batch)
                .filter(|(&d, a)| d != a.address & mask)
                .count() as u64;
            let request = Message::Data {
                seq: r as u32,
                accesses: batch.to_vec(),
            };
            let reply = Message::Decoded {
                seq: r as u32,
                addresses: decoded,
            };
            let t = Instant::now();
            let (request_back, reply_back) = tracer.span("serve.wire", 0, n, |_| {
                (
                    Message::decode(&request.encode()),
                    Message::decode(&reply.encode()),
                )
            });
            m.wire_ns.push(t.elapsed().as_nanos() as u64);
            if request_back.as_ref() != Ok(&request) || reply_back.as_ref() != Ok(&reply) {
                return Err(format!(
                    "wire round trip changed a batch of {} {}",
                    plan.code.name(),
                    plan.tier.name()
                ));
            }
        }
        let mut binary = CodeKind::Binary
            .encoder(params)
            .map_err(|e| e.to_string())?;
        m.transitions.add(Transitions {
            coded: channel.transitions,
            binary: count_transitions_slice(&mut *binary, &plan.stream).total(),
        });
    }
    Ok(m)
}
