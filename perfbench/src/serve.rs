//! The two service workloads: `serve_steady` (open loop over loopback
//! TCP) and `serve_bulk` (an in-process backlog), plus the traced replay
//! of the batches their journal recorded.

use crate::host::{Gauge, Host};
use crate::mix::{
    by_second, census_sweep, expected, group_quantile, median, next_job, quantile, Tally,
};
use crate::spans::{coverage, paired, totals, Tracer};
use crate::{Opts, Report};
use mcb_algos::batch::BatchProgram;
use mcb_algos::heal::{run_program_offline, HealProgram, SelfHealing};
use mcb_json::Json;
use mcb_net::FaultPlan;
use mcb_rng::Rng64;
use mcb_serve::records::{
    batch_record, done_checksum, header_record, job_record, parse_batch_record, parse_job_record,
    BatchJobLine,
};
use mcb_serve::{
    proto, serve_tcp, JobResult, JobSpec, Journal, Outcome, ServeConfig, Service, Submit,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Service start-ups before the measured phase, and again after it;
/// `setup_s` is the median of all of them. Set-up time drifts with the
/// host over seconds, so timing it at both ends of the run steadies it.
const SETUPS: usize = 24;
/// Jobs each start-up runs before it counts as ready.
const WARM_JOBS: usize = 16;
/// Seed of the warm-up jobs. It is fixed, so every seed sets up the same
/// work and `setup_s` compares across seeds.
const WARM_SEED: u64 = 0x5e70;
/// serve_steady samples the host after every this many replies, when the
/// next request is not due for `SAMPLE_GAP`. The job after a sample finds
/// colder caches, so few jobs may follow one: fewer than the 10% that
/// `job_p90_ms` looks at.
const SAMPLE_EVERY: usize = 16;
const SAMPLE_GAP: Duration = Duration::from_millis(4);
/// Host samples between two serve_bulk rounds, while the service idles.
const ROUND_SAMPLES: usize = 4;
/// The load writer wakes this long before a request is due and spins
/// the rest. The CPU idles between jobs, and on a busy host the timer
/// wake-up of an idle vCPU can come this late.
const SPIN: Duration = Duration::from_millis(1);
/// serve_steady's arrival rate, jobs per second, on one connection.
const RATE: f64 = 150.0;
/// serve_bulk's backlog per round: eight full batches of `batch_max`.
const BULK: usize = 128;
/// Keys in the sort job that holds the batcher busy while a round's
/// backlog is submitted, so every backlog batch packs `batch_max` jobs.
const PLUG_KEYS: usize = 48;

/// The load client's side of a connection. It re-arms `TCP_QUICKACK`
/// around every read, so the client ACKs each reply segment at once. The
/// server writes a reply frame in two writes (header, then body) without
/// `TCP_NODELAY`, so Nagle holds the body until the header is ACKed. A
/// delayed ACK would pin every job's latency to the client's next send,
/// and server-side costs below the send interval would not show.
struct QuickAck(TcpStream);

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        quickack(&self.0)?;
        let n = self.0.read(buf)?;
        quickack(&self.0)?;
        Ok(n)
    }
}

/// Put the socket in quick-ACK mode. Linux leaves the mode again on its
/// own, so this is called around every read.
#[cfg(target_os = "linux")]
fn quickack(s: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: `fd` is an open socket owned by `s`, and `value` points to
    // an `i32` that outlives the call, whose size is passed as `len`.
    let rc = unsafe { setsockopt(s.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

/// The parts of a service journal the benchmark checks and replays.
#[derive(Default)]
struct JournalView {
    specs: HashMap<u64, (JobSpec, u64)>,
    batches: Vec<BatchRec>,
}

struct BatchRec {
    seq: u64,
    cycles: u64,
    epochs: u64,
    lines: Vec<BatchJobLine>,
}

fn read_journal(path: &Path) -> Result<JournalView, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut view = JournalView::default();
    for line in raw.lines() {
        let j = Json::parse(line)?;
        match j.get("record").and_then(Json::as_str) {
            Some("job") => {
                let (id, spec, deadline) = parse_job_record(&j)?;
                view.specs.insert(id, (spec, deadline));
            }
            Some("batch") => {
                let num = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
                view.batches.push(BatchRec {
                    seq: num("batch"),
                    cycles: num("cycles"),
                    epochs: num("epochs"),
                    lines: parse_batch_record(&j)?,
                });
            }
            _ => {}
        }
    }
    Ok(view)
}

/// Wait until every id in `ids` has a terminal journal line (the batch
/// record lands just after the outcomes are sent), then check each `done`
/// checksum against the locally computed answer.
fn check_journal(path: &Path, ids: &[u64], tally: &mut Tally) -> Result<JournalView, String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let view = read_journal(path)?;
        let mut done: HashMap<u64, u64> = HashMap::new();
        let mut dup = 0;
        for b in &view.batches {
            for l in b.lines.iter().filter(|l| l.status == "done") {
                if done.insert(l.id, l.checksum).is_some() {
                    dup += 1;
                }
            }
        }
        let missing = ids.iter().filter(|id| !done.contains_key(id)).count() as u64;
        if missing == 0 || Instant::now() > give_up {
            tally.missing += missing;
            tally.wrong += dup;
            for id in ids {
                match (done.get(id), view.specs.get(id)) {
                    (Some(&sum), Some((spec, _))) if sum != done_checksum(&expected(spec)) => {
                        tally.wrong += 1;
                    }
                    (Some(_), None) => tally.missing += 1,
                    _ => {}
                }
            }
            return Ok(view);
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// Settle one outcome against the expected answer.
fn settle(outcome: &Outcome, spec: &JobSpec, tally: &mut Tally) {
    match outcome {
        Outcome::Done(r) if *r == expected(spec) => {}
        Outcome::Done(_) => tally.wrong += 1,
        Outcome::Shed { .. } => tally.shed += 1,
        Outcome::Failed { .. } => tally.failed += 1,
    }
}

fn submit(
    svc: &Service,
    spec: JobSpec,
    tally: &mut Tally,
) -> Option<(u64, Receiver<(u64, Outcome)>)> {
    tally.attempted += 1;
    match svc.submit(spec, 0) {
        Submit::Admitted { id, rx } => Some((id, rx)),
        Submit::Shed { .. } => {
            tally.shed += 1;
            None
        }
    }
}

fn recv(rx: &Receiver<(u64, Outcome)>) -> Outcome {
    rx.recv().map_or_else(
        |_| Outcome::Failed {
            attempts: 0,
            error: "outcome channel closed".into(),
        },
        |(_, o)| o,
    )
}

/// A started, warmed service.
struct Started {
    svc: Service,
    journal: PathBuf,
    /// Journal ids of the warm-up jobs (checked, never replayed).
    warm_ids: Vec<u64>,
}

/// Start a journaled service and run `WARM_JOBS` jobs through it, one at
/// a time, `n` times over. Push each set-up's end and time onto `times`,
/// sample the host after each, and keep the last service.
fn start(
    o: &Opts,
    tag: &str,
    n: usize,
    tally: &mut Tally,
    times: &mut Vec<(Instant, f64)>,
    host: &mut Host,
) -> Result<Started, String> {
    let mut rng = Rng64::seed_from_u64(WARM_SEED);
    let warm: Vec<JobSpec> = (0..WARM_JOBS).map(|_| next_job(&mut rng)).collect();
    let mut kept: Option<Started> = None;
    for i in 0..n {
        if let Some(last) = kept.take() {
            last.svc.shutdown();
            let _ = std::fs::remove_file(&last.journal);
        }
        let journal = o.out.join(format!("journal-{tag}-{i}.jsonl"));
        let _ = std::fs::remove_file(&journal);
        let t = Instant::now();
        let svc = Service::start(ServeConfig::default(), Some(&journal))?;
        let mut warm_ids = Vec::with_capacity(WARM_JOBS);
        for spec in &warm {
            if let Some((id, rx)) = submit(&svc, spec.clone(), tally) {
                settle(&recv(&rx), spec, tally);
                warm_ids.push(id);
            }
        }
        let end = Instant::now();
        times.push((end, end.duration_since(t).as_secs_f64()));
        host.sample();
        kept = Some(Started {
            svc,
            journal,
            warm_ids,
        });
    }
    kept.ok_or_else(|| "no set-up ran".to_owned())
}

/// The set-ups after the measured phase: they end when they are timed.
fn start_after(
    o: &Opts,
    tally: &mut Tally,
    times: &mut Vec<(Instant, f64)>,
    host: &mut Host,
) -> Result<(), String> {
    let last = start(o, "after", SETUPS, tally, times, host)?;
    last.svc.shutdown();
    let _ = std::fs::remove_file(&last.journal);
    Ok(())
}

/// Exact counts over a set of batches: they repeat for a seed whenever
/// the packing does.
fn batch_counts(view: &JournalView, ids: &HashSet<u64>, tag: &str) -> Vec<(String, u64)> {
    let mut sizes: BTreeMap<usize, u64> = BTreeMap::new();
    let (mut batches, mut cycles, mut epochs) = (0, 0, 0);
    let mut tenant_cycles = 0;
    for b in view
        .batches
        .iter()
        .filter(|b| b.lines.iter().all(|l| ids.contains(&l.id)))
    {
        batches += 1;
        cycles += b.cycles;
        epochs += b.epochs;
        tenant_cycles += b.lines.iter().map(|l| l.cycles).sum::<u64>();
        *sizes.entry(b.lines.len()).or_default() += 1;
    }
    let mut out = vec![
        (format!("{tag}batches"), batches),
        (format!("{tag}cycles"), cycles),
        (format!("{tag}tenant_cycles"), tenant_cycles),
        (format!("{tag}epochs"), epochs),
    ];
    out.extend(
        sizes
            .into_iter()
            .map(|(n, c)| (format!("{tag}batches_of_{n}_jobs"), c)),
    );
    out
}

pub fn steady(o: &Opts) -> Result<Report, String> {
    let mut rng = Rng64::seed_from_u64(o.seed);
    let mut tally = Tally::default();
    let mut host = Host::new();
    let mut setups = Vec::with_capacity(2 * SETUPS);
    let started = start(o, "before", SETUPS, &mut tally, &mut setups, &mut host)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let svc = Arc::new(started.svc);
    {
        // The accept loop has no stop signal; it ends with the process.
        let svc = Arc::clone(&svc);
        thread::Builder::new()
            .name("perfbench-accept".into())
            .spawn(move || serve_tcp(svc, listener))
            .map_err(|e| e.to_string())?;
    }

    let n = (RATE * o.seconds).round().max(1.0) as usize;
    let specs: Vec<JobSpec> = (0..n).map(|_| next_job(&mut rng)).collect();
    // Whole frames rendered up front, each sent in one write: the
    // generator's own cost stays out of the timed path.
    let frames: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| {
            let mut buf = Vec::new();
            proto::write_frame(&mut buf, &proto::render_request(s, 0)).expect("write to a Vec");
            buf
        })
        .collect();
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(QuickAck(stream.try_clone().map_err(|e| e.to_string())?));
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| t0 + Duration::from_secs_f64(i as f64 / RATE);
    let writer = thread::Builder::new()
        .name("perfbench-load".into())
        .spawn(move || -> std::io::Result<Vec<f64>> {
            let mut stream = stream;
            let mut late_ms = Vec::with_capacity(frames.len());
            for (i, frame) in frames.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at - SPIN > now {
                    thread::sleep(at - SPIN - now);
                }
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                late_ms.push(at.elapsed().as_secs_f64() * 1e3);
                stream.write_all(frame)?;
            }
            Ok(late_ms)
        })
        .map_err(|e| e.to_string())?;

    // When each reply arrived and the job's latency in ms.
    let mut timed: Vec<(Instant, f64)> = Vec::with_capacity(n);
    let mut ids = started.warm_ids.clone();
    let mut last = t0;
    tally.attempted += n as u64;
    for (i, spec) in specs.iter().enumerate() {
        let Some(raw) = proto::read_frame(&mut reader).map_err(|e| e.to_string())? else {
            // The connection closed: job i and every later one is missing.
            tally.missing += (n - i) as u64;
            break;
        };
        last = Instant::now();
        timed.push((last, last.duration_since(due(i)).as_secs_f64() * 1e3));
        let (id, outcome) = proto::parse_response(&raw)?;
        settle(&outcome, spec, &mut tally);
        if let (Some(id), Outcome::Done(_)) = (id, &outcome) {
            ids.push(id);
        }
        // In the idle gap before the next request, so the reference load
        // and the server do not share the CPU.
        if i % SAMPLE_EVERY == 0 && due(i + 1) > Instant::now() + SAMPLE_GAP {
            host.sample();
        }
    }
    let mut late_ms = writer
        .join()
        .map_err(|_| "load generator panicked".to_owned())?
        .map_err(|e| e.to_string())?;
    drop(reader);
    let elapsed = last.duration_since(t0).as_secs_f64();
    let done = timed.len() as f64;
    start_after(o, &mut tally, &mut setups, &mut host)?;
    let view = check_journal(&started.journal, &ids, &mut tally)?;

    let warm: HashSet<u64> = started.warm_ids.iter().copied().collect();
    let measured: HashSet<u64> = ids
        .iter()
        .copied()
        .filter(|id| !warm.contains(id))
        .collect();
    let mut raw_ms: Vec<f64> = timed.iter().map(|x| x.1).collect();
    let mean_ms = raw_ms.iter().sum::<f64>() / done.max(1.0);
    let scaled: Vec<(Instant, f64)> = timed
        .iter()
        .map(|&(at, ms)| (at, ms * host.scale(Gauge::Handoff, at)))
        .collect();
    let groups = by_second(&scaled);
    let mut report = Report::new(tally, scaled_median(&setups, &host));
    // The offered load, as long as the service keeps up: not scaled.
    report.jobs_per_s = done / elapsed.max(1e-9);
    report.job_p50_ms = group_quantile(&groups, 0.5);
    report.job_p90_ms = group_quantile(&groups, 0.9);
    let mut raw_setup: Vec<f64> = setups.iter().map(|x| x.1).collect();
    let rate = report.jobs_per_s;
    report.host(&host, &mut raw_ms, &mut raw_setup, rate);
    report.raw.extend([
        ("load.late_p90_ms", quantile(&mut late_ms, 0.9), "ms"),
        ("load.late_p99_ms", quantile(&mut late_ms, 0.99), "ms"),
    ]);
    report.counts = vec![("jobs".into(), n as u64)];
    report.counts.extend(batch_counts(&view, &measured, ""));
    if o.trace {
        let l = &mut report.layers;
        l.insert("load.sent", n as f64);
        l.insert("load.late_p99_ms", quantile(&mut late_ms, 0.99));
        l.insert("admission.shed", report.tally.shed as f64);
        l.insert("batcher.jobs_per_batch", jobs_per_batch(&view, &measured));
        // A job's latency is the time the layers should explain.
        replay(o, &view, &measured, mean_ms, &mut report)?;
    }
    Ok(report)
}

fn plug_spec() -> JobSpec {
    JobSpec::Sort {
        keys: (0..PLUG_KEYS as u64).map(|i| i * 7919 % 1000).collect(),
    }
}

/// One job of a bulk round, as the benchmark saw it.
struct Sent {
    id: u64,
    spec: JobSpec,
    rx: Receiver<(u64, Outcome)>,
    submitted: Instant,
}

pub fn bulk(o: &Opts) -> Result<Report, String> {
    let mut rng = Rng64::seed_from_u64(o.seed);
    let mut tally = Tally::default();
    let mut host = Host::new();
    let mut setups = Vec::with_capacity(2 * SETUPS);
    let started = start(o, "before", SETUPS, &mut tally, &mut setups, &mut host)?;
    let svc = &started.svc;
    let mut tr = Tracer::new(o.trace);
    // Each round's middle instant and raw rate.
    let mut rates: Vec<(Instant, f64)> = Vec::new();
    // Per round, when each backlog job's outcome arrived, and ms since
    // the plug's.
    let mut timed: Vec<Vec<(Instant, f64)>> = Vec::new();
    let mut ids = started.warm_ids.clone();
    let mut setup_ids: HashSet<u64> = started.warm_ids.iter().copied().collect();
    let mut round0: HashSet<u64> = HashSet::new();
    // Batch timing seen from outside: when each job's outcome arrived,
    // and when it was submitted (for the queue-wait estimate).
    let mut done_at: HashMap<u64, Instant> = HashMap::new();
    let mut submitted_at: HashMap<u64, Instant> = HashMap::new();
    let end = Instant::now() + Duration::from_secs_f64(o.seconds);
    let mut rounds = 0u64;
    // Time from each round's plug reply to its last reply, summed.
    let mut window = Duration::ZERO;
    loop {
        for _ in 0..ROUND_SAMPLES {
            host.sample();
        }
        let plug = plug_spec();
        let Some((plug_id, plug_rx)) = submit(svc, plug.clone(), &mut tally) else {
            break;
        };
        ids.push(plug_id);
        setup_ids.insert(plug_id);
        while svc.queue_depth() > 0 {
            thread::sleep(Duration::from_micros(50));
        }
        // The batcher has taken the plug; let it finish topping up.
        thread::sleep(Duration::from_millis(1));
        let mut sent = Vec::with_capacity(BULK);
        for _ in 0..BULK {
            let spec = next_job(&mut rng);
            let t = Instant::now();
            if let Some((id, rx)) = submit(svc, spec.clone(), &mut tally) {
                let after = Instant::now();
                tr.record("admission.submit", id, t, after);
                sent.push(Sent {
                    id,
                    spec,
                    rx,
                    submitted: t,
                });
            }
        }
        settle(&recv(&plug_rx), &plug, &mut tally);
        let t_plug = Instant::now();
        done_at.insert(plug_id, t_plug);
        let mut last = t_plug;
        let mut round = Vec::with_capacity(sent.len());
        for s in &sent {
            settle(&recv(&s.rx), &s.spec, &mut tally);
            last = Instant::now();
            round.push((last, last.duration_since(t_plug).as_secs_f64() * 1e3));
            done_at.insert(s.id, last);
            submitted_at.insert(s.id, s.submitted);
            ids.push(s.id);
            if rounds == 0 {
                round0.insert(s.id);
            }
        }
        timed.push(round);
        let took = last.duration_since(t_plug);
        window += took;
        let rate = sent.len() as f64 / took.as_secs_f64().max(1e-9);
        rates.push((t_plug + took / 2, rate));
        rounds += 1;
        if Instant::now() >= end {
            break;
        }
    }
    for _ in 0..ROUND_SAMPLES {
        host.sample();
    }
    start_after(o, &mut tally, &mut setups, &mut host)?;
    let view = check_journal(&started.journal, &ids, &mut tally)?;
    let measured: HashSet<u64> = ids
        .iter()
        .copied()
        .filter(|id| !setup_ids.contains(id))
        .collect();

    let mut report = Report::new(tally, scaled_median(&setups, &host));
    // Each round is a group: the same backlog, so the same shape.
    let groups: Vec<Vec<f64>> = timed
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|&(at, ms)| ms * host.scale(Gauge::Handoff, at))
                .collect()
        })
        .collect();
    let mut raw_ms: Vec<f64> = timed.iter().flatten().map(|x| x.1).collect();
    let mut scaled_rates: Vec<f64> = rates
        .iter()
        .map(|&(at, rate)| rate / host.scale(Gauge::Handoff, at))
        .collect();
    let mut raw_rates: Vec<f64> = rates.iter().map(|x| x.1).collect();
    report.jobs_per_s = median(&mut scaled_rates);
    report.job_p50_ms = group_quantile(&groups, 0.5);
    report.job_p90_ms = group_quantile(&groups, 0.9);
    let mut raw_setup: Vec<f64> = setups.iter().map(|x| x.1).collect();
    report.host(&host, &mut raw_ms, &mut raw_setup, median(&mut raw_rates));
    report.counts = vec![
        ("rounds".into(), rounds),
        ("round0.jobs".into(), round0.len() as u64),
    ];
    report
        .counts
        .extend(batch_counts(&view, &round0, "round0."));
    if o.trace {
        let l = &mut report.layers;
        l.insert("load.sent", measured.len() as f64);
        l.insert("admission.shed", report.tally.shed as f64);
        l.insert("batcher.jobs_per_batch", jobs_per_batch(&view, &measured));
        l.insert(
            "serve.queue_wait_ms",
            queue_wait_ms(&view, &done_at, &submitted_at),
        );
        let admission = totals(tr.spans());
        let submit_us = admission
            .get("admission.submit")
            .map_or(0.0, |t| t.mean_us());
        // Batches run one after another, so the wall time per backlog
        // job is what the layers should explain.
        let jobs = raw_ms.len().max(1) as f64;
        replay(
            o,
            &view,
            &measured,
            window.as_secs_f64() * 1e3 / jobs,
            &mut report,
        )?;
        // Bulk submits are the workload's own calls: time them there.
        report.layers.insert("admission.submit_us", submit_us);
        tr.write_jsonl(&o.out.join("spans-live.jsonl"))
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}

/// Median set-up time, each scaled to the nominal host.
fn scaled_median(setups: &[(Instant, f64)], host: &Host) -> f64 {
    let mut s: Vec<f64> = setups
        .iter()
        .map(|&(at, s)| s * host.scale(Gauge::Handoff, at))
        .collect();
    median(&mut s)
}

fn jobs_per_batch(view: &JournalView, ids: &HashSet<u64>) -> f64 {
    let sizes: Vec<usize> = view
        .batches
        .iter()
        .filter(|b| b.lines.iter().all(|l| ids.contains(&l.id)))
        .map(|b| b.lines.len())
        .collect();
    sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64
}

/// Mean time a backlog job waited before its batch started. The batcher
/// runs one batch at a time and the backlog keeps it busy, so a batch
/// starts when the one before it delivered its outcomes.
fn queue_wait_ms(
    view: &JournalView,
    done_at: &HashMap<u64, Instant>,
    submitted_at: &HashMap<u64, Instant>,
) -> f64 {
    let mut waits = Vec::new();
    let mut prev_done: Option<Instant> = None;
    for b in &view.batches {
        if let Some(start) = prev_done {
            for l in &b.lines {
                if let Some(&sub) = submitted_at.get(&l.id) {
                    waits.push(start.saturating_duration_since(sub).as_secs_f64() * 1e3);
                }
            }
        }
        prev_done = b
            .lines
            .iter()
            .filter_map(|l| done_at.get(&l.id))
            .max()
            .copied();
    }
    waits.iter().sum::<f64>() / waits.len().max(1) as f64
}

/// What one replay pass produced (counts are per pass).
#[derive(Default)]
struct ReplayCounts {
    batches: u64,
    jobs: u64,
    appends: u64,
    cycles: u64,
    messages: u64,
    epochs: u64,
    census_cycles: u64,
    replay_cycles: u64,
    /// Bytes the pass appended to its journal, header excluded.
    journal_bytes: u64,
    mismatches: u64,
}

/// Replay `batches` through the public functions in the batcher's order:
/// frame decode, admission, job append, batch packing, the offline
/// reference run, the healed run, decode, batch append, reply frame.
fn replay_pass(
    o: &Opts,
    view: &JournalView,
    batches: &[&BatchRec],
    tr: &mut Tracer,
    budget: Option<Duration>,
) -> Result<(ReplayCounts, Duration), String> {
    let cfg = ServeConfig::default();
    let path = o.out.join("replay-journal.jsonl");
    let _ = std::fs::remove_file(&path);
    let journal = Journal::open(&path).map_err(|e| e.to_string())?;
    // Admission runs against its own service, which executes the jobs
    // while the replay waits (the `service.wait` span).
    let svc = Service::start(cfg.clone(), None)?;
    let mut c = ReplayCounts::default();
    let t = Instant::now();
    let root = tr.enter("replay", 0);
    for b in batches {
        if budget.is_some_and(|budget| t.elapsed() >= budget) {
            break;
        }
        let open = tr.enter("batch", b.seq);
        let mut specs = Vec::with_capacity(b.lines.len());
        for l in &b.lines {
            let (spec, deadline) = &view.specs[&l.id];
            let parsed = tr.span("proto.request", l.id, || {
                let mut frame = Vec::new();
                proto::write_frame(&mut frame, &proto::render_request(spec, *deadline))
                    .expect("write to a Vec");
                let raw = proto::read_frame(&mut frame.as_slice())
                    .expect("read from a slice")
                    .expect("one frame");
                proto::parse_request(&raw)
            })?;
            if parsed.0 != *spec {
                c.mismatches += 1;
            }
            specs.push(parsed);
        }
        let mut rxs = Vec::with_capacity(specs.len());
        for (l, (spec, deadline)) in b.lines.iter().zip(&specs) {
            let sub = tr.span("admission.submit", l.id, || {
                svc.submit(spec.clone(), *deadline)
            });
            tr.span("journal.append", l.id, || {
                journal.append(&job_record(l.id, spec, *deadline))
            })
            .map_err(|e| e.to_string())?;
            c.appends += 1;
            match sub {
                Submit::Admitted { rx, .. } => rxs.push(rx),
                Submit::Shed { .. } => c.mismatches += 1,
            }
        }
        let outcomes: Vec<Outcome> =
            tr.span("service.wait", b.seq, || rxs.iter().map(recv).collect());
        let prog = tr.span("batcher.pack", b.seq, || {
            let parts = specs
                .iter()
                .map(|(s, _)| s.to_part())
                .collect::<Result<Vec<_>, _>>()?;
            BatchProgram::new(parts)
        });
        let prog = prog.map_err(|e| e.to_string())?;
        let p = HealProgram::<u64>::roles(&prog);
        let k = cfg.k.min(p).max(1);
        let (_, l_cycles) = tr.span("heal.offline", b.seq, || {
            run_program_offline::<u64, _>(&prog)
        });
        let run = tr
            .span("heal.run", b.seq, || {
                SelfHealing::new(FaultPlan::new(p, k))
                    .backend(cfg.backend)
                    .stall_window(cfg.stall_window)
                    .cycle_budget(cfg.cycle_budget)
                    .run_program(p, k, prog)
            })
            .map_err(|e| e.to_string())?;
        let results: Vec<JobResult> = tr.span("decode", b.seq, || {
            specs
                .iter()
                .zip(&run.output)
                .map(|((s, _), out)| s.decode(out))
                .collect()
        });
        let epochs = run.epochs.len() as u64;
        let census = epochs * census_sweep(p, k);
        c.census_cycles += census;
        c.replay_cycles += run.metrics.cycles.saturating_sub(l_cycles + census);
        c.cycles += run.metrics.cycles;
        c.messages += run.metrics.messages;
        c.epochs += epochs;
        c.batches += 1;
        c.jobs += specs.len() as u64;
        if run.metrics.cycles != b.cycles || epochs != b.epochs {
            c.mismatches += 1;
        }
        let mut lines = Vec::with_capacity(results.len());
        for ((l, r), served) in b.lines.iter().zip(&results).zip(&outcomes) {
            let sum = done_checksum(r);
            if sum != l.checksum || *served != Outcome::Done(r.clone()) {
                c.mismatches += 1;
            }
            lines.push(BatchJobLine {
                checksum: sum,
                ..l.clone()
            });
        }
        let rec = batch_record(b.seq, p, k, run.metrics.cycles, epochs, None, &lines);
        tr.span("journal.append", b.seq, || journal.append(&rec))
            .map_err(|e| e.to_string())?;
        c.appends += 1;
        for (l, r) in b.lines.iter().zip(results) {
            let back = tr.span("proto.response", l.id, || {
                let mut frame = Vec::new();
                proto::write_frame(
                    &mut frame,
                    &proto::render_response(Some(l.id), &Outcome::Done(r)),
                )
                .expect("write to a Vec");
                let raw = proto::read_frame(&mut frame.as_slice())
                    .expect("read from a slice")
                    .expect("one frame");
                proto::parse_response(&raw)
            })?;
            if back.0 != Some(l.id) {
                c.mismatches += 1;
            }
        }
        tr.exit(open);
    }
    tr.exit(root);
    let wall = t.elapsed();
    svc.shutdown();
    let header = header_record().render().len() as u64 + 1;
    c.journal_bytes = std::fs::metadata(&path)
        .map_err(|e| e.to_string())?
        .len()
        .saturating_sub(header);
    Ok((c, wall))
}

/// The spans of the server's own work on a job's path. `service.wait`
/// runs the same batch a second time, and the server computes
/// `heal.offline` only inside `heal.run`, so neither counts.
const SERVER_PATH: [&str; 7] = [
    "proto.request",
    "admission.submit",
    "journal.append",
    "batcher.pack",
    "heal.run",
    "decode",
    "proto.response",
];

/// Replay the measured batches in five passes (see [`paired`]) and turn
/// a traced pass's spans into the per-layer metrics. `measured_ms` is the
/// measured run's wall time per job; the share of it that the replayed
/// server path does not explain is `trace.uncovered`. It reads below 0
/// when the replay ran slower than the measured run.
fn replay(
    o: &Opts,
    view: &JournalView,
    measured: &HashSet<u64>,
    measured_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let batches: Vec<&BatchRec> = view
        .batches
        .iter()
        .filter(|b| {
            b.lines
                .iter()
                .all(|l| l.status == "done" && measured.contains(&l.id))
        })
        .collect();
    // The first pass stops at the time budget; the others replay the
    // batches it reached.
    let mut budget = Some(Duration::from_secs_f64(o.seconds / 8.0));
    let mut reached = batches.len();
    let passes = paired(|tr| {
        let (c, wall) = replay_pass(o, view, &batches[..reached], tr, budget.take())?;
        reached = c.batches as usize;
        Ok((c, wall))
    })?;
    passes
        .tracer
        .write_jsonl(&o.out.join("spans-replay.jsonl"))
        .map_err(|e| e.to_string())?;
    report.tally.wrong += passes.passes.iter().map(|c| c.mismatches).sum::<u64>();
    let c = passes.traced();
    let t = totals(passes.tracer.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let jobs = c.jobs.max(1) as f64;
    let batches = c.batches.max(1) as f64;
    let journal = get("journal.append");
    let run = get("heal.run");
    let offline = get("heal.offline");
    let heal_self_ns = run.total_ns.saturating_sub(offline.total_ns) as f64;
    let l = &mut report.layers;
    l.insert("proto.request_us", get("proto.request").mean_us());
    l.insert("proto.response_us", get("proto.response").mean_us());
    l.insert("admission.submit_us", get("admission.submit").mean_us());
    l.insert("journal.append_us", journal.mean_us());
    l.insert("journal.appends_per_job", c.appends as f64 / jobs);
    l.insert("journal.bytes_per_job", c.journal_bytes as f64 / jobs);
    l.insert(
        "batcher.pack_us",
        get("batcher.pack").total_ns as f64 / batches / 1e3,
    );
    l.insert("heal.run_ms_per_batch", heal_self_ns / batches / 1e6);
    l.insert(
        "heal.offline_us_per_batch",
        offline.total_ns as f64 / batches / 1e3,
    );
    l.insert(
        "heal.us_per_cycle",
        heal_self_ns / c.cycles.max(1) as f64 / 1e3,
    );
    l.insert("heal.epochs", c.epochs as f64 / batches);
    l.insert("heal.census_cycles", c.census_cycles as f64 / batches);
    l.insert("heal.replay_cycles", c.replay_cycles as f64 / batches);
    l.insert("engine.cycles", c.cycles as f64 / batches);
    l.insert("engine.messages", c.messages as f64 / batches);
    l.insert("engine.runs", c.batches as f64);
    l.insert(
        "service.wait_ms",
        get("service.wait").total_ns as f64 / batches / 1e6,
    );
    l.insert(
        "decode.us_per_job",
        get("decode").total_ns as f64 / jobs / 1e3,
    );
    l.insert("trace.overhead", passes.overhead);
    l.insert("trace.coverage", coverage(passes.tracer.spans(), "replay"));
    let path_ns: u64 = SERVER_PATH.iter().map(|name| get(name).total_ns).sum();
    let path_ms = path_ns as f64 / jobs / 1e6;
    l.insert("trace.uncovered", 1.0 - path_ms / measured_ms.max(1e-9));
    Ok(())
}
