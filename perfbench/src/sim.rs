//! `sim_pairs`: a seeded sample of the (p=4, k=2) two-fault grid run
//! through the fault-space explorer's select target.

use crate::host::{Gauge, Host};
use crate::mix::{by_second, census_sweep, group_quantile, median, Tally};
use crate::spans::{coverage, paired, totals, union_ns, Tracer};
use crate::{Opts, Report};
use mcb_algos::heal::{run_program_offline, SelectProgram, SelfHealing};
use mcb_net::{Backend, FaultPlan};
use mcb_rng::Rng64;
use mcb_sim::{two_fault_plans, EnumOpts, SimTarget, Verdict};
use std::time::{Duration, Instant};

const P: usize = 4;
const K: usize = 2;
const N_PER: usize = 3;
const D: usize = 6;
const TARGET: SimTarget = SimTarget::Select {
    p: P,
    k: K,
    n_per: N_PER,
    d: D,
};
/// Grid enumerations per run; `setup_s` is their median. The first four
/// or so pay for fresh pages, so the median needs many more. Unlike the
/// serve set-ups, these are not repeated after the measured phase: there
/// the heap the run left behind made both their time and the peak
/// resident set vary from run to run.
const SETUPS: usize = 15;
/// Plans between two host reference samples (about 25 ms of plans).
const SAMPLE_EVERY: usize = 32;
/// Plans always run, whatever `--seconds` says: the prefix whose counts
/// repeat exactly for a seed.
const ROUND: usize = 256;
/// The explorer's watchdog and budget (`mcb_sim::target`), used again
/// when the replay drives the healed run itself.
const STALL_WINDOW: u64 = 100_000;
const CYCLE_BUDGET: u64 = 10_000_000;
/// Columnsort sorts at p = 100,000 that this workload's traced run
/// replays, to keep the vector layer measured.
const VECTOR_SORTS: usize = 3;

/// The grid in a seeded order, and the fault-free cycle count `L`.
fn grid(seed: u64) -> (Vec<FaultPlan>, u64) {
    let l = TARGET.fault_free_cycles();
    let mut plans = two_fault_plans(P, K, &EnumOpts::covered(l, l));
    Rng64::seed_from_u64(seed).shuffle(&mut plans);
    (plans, l)
}

/// The target's input lists, as `SimTarget` builds them.
fn input() -> Vec<Vec<u64>> {
    (0..P)
        .map(|c| {
            (0..N_PER)
                .map(|r| ((c * N_PER + r) as u64).wrapping_mul(2_654_435_761) % 97)
                .collect()
        })
        .collect()
}

#[derive(Default)]
struct Verdicts {
    pass: u64,
    typed: u64,
    overrun: u64,
    wrong: u64,
    cycles: u64,
    epochs: u64,
}

impl Verdicts {
    fn add(&mut self, v: &Verdict) {
        match v {
            Verdict::Pass(info) => {
                self.pass += 1;
                self.cycles += info.cycles;
                self.epochs += info.epoch_cycles.len() as u64;
            }
            Verdict::TypedError(_) => self.typed += 1,
            Verdict::Overrun(_) => self.overrun += 1,
            Verdict::Wrong(_) => self.wrong += 1,
        }
    }
}

pub fn pairs(o: &Opts) -> Result<Report, String> {
    let mut tr = Tracer::new(o.trace);
    let mut host = Host::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut grid_plans = (Vec::new(), 0);
    for _ in 0..SETUPS {
        host.sample();
        let t = Instant::now();
        let next = grid(o.seed);
        let end = Instant::now();
        // The last grid is freed outside the timing, after the new one is
        // built: two grids at once make the peak resident set the same
        // on every run.
        grid_plans = next;
        tr.record("sim.enumerate", 0, t, end);
        setups.push((end, end.duration_since(t).as_secs_f64()));
    }
    host.sample();
    let (plans, l) = grid_plans;
    let grid_size = plans.len() as u64;

    let mut tally = Tally::default();
    let mut all = Verdicts::default();
    let mut round = Verdicts::default();
    // When each plan ended and how long it took, in ms.
    let mut timed: Vec<(Instant, f64)> = Vec::new();
    // Cycles and epochs of each passing plan in the first round, for the
    // replay to match exactly.
    let mut seen: Vec<Option<(u64, u64)>> = Vec::with_capacity(ROUND);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(o.seconds);
    for (i, plan) in plans.iter().enumerate() {
        if i >= ROUND && Instant::now() >= end {
            break;
        }
        if i % SAMPLE_EVERY == 0 {
            let t = Instant::now();
            host.sample();
            tr.record("host.ref", i as u64, t, Instant::now());
        }
        let t = Instant::now();
        let v = TARGET.run(plan);
        let done = Instant::now();
        tr.record("sim.run", i as u64, t, done);
        timed.push((done, done.duration_since(t).as_secs_f64() * 1e3));
        tally.attempted += 1;
        match &v {
            Verdict::Wrong(_) => tally.wrong += 1,
            Verdict::Overrun(_) => tally.failed += 1,
            _ => {}
        }
        all.add(&v);
        if i < ROUND {
            round.add(&v);
            seen.push(match &v {
                Verdict::Pass(info) => Some((info.cycles, info.epoch_cycles.len() as u64)),
                _ => None,
            });
        }
    }
    let stop = Instant::now();
    host.sample();

    // The enumeration is single-threaded work: the compute gauge scales it.
    let mut setup_s: Vec<f64> = setups
        .iter()
        .map(|&(at, s)| s * host.scale(Gauge::Compute, at))
        .collect();
    let mut report = Report::new(tally, median(&mut setup_s));
    let mut raw_ms: Vec<f64> = timed.iter().map(|x| x.1).collect();
    let scaled: Vec<(Instant, f64)> = timed
        .iter()
        .map(|&(at, ms)| (at, ms * host.scale(Gauge::Handoff, at)))
        .collect();
    let groups = by_second(&scaled);
    // Plans per second of plan time, scaled to the nominal host.
    let mut rates: Vec<f64> = groups
        .iter()
        .map(|g| g.len() as f64 * 1e3 / g.iter().sum::<f64>().max(1e-9))
        .collect();
    report.jobs_per_s = median(&mut rates);
    report.job_p50_ms = group_quantile(&groups, 0.5);
    report.job_p90_ms = group_quantile(&groups, 0.9);
    let mut raw_setup: Vec<f64> = setups.iter().map(|x| x.1).collect();
    let raw_rate = timed.len() as f64 / stop.duration_since(start).as_secs_f64();
    report.host(&host, &mut raw_ms, &mut raw_setup, raw_rate);
    report.named.push(("plans_per_s", report.jobs_per_s, "1/s"));
    report.named.push(("plan_p90_ms", report.job_p90_ms, "ms"));
    report.counts = vec![
        ("grid_plans".into(), grid_size),
        ("horizon_l".into(), l),
        ("round.plans".into(), seen.len() as u64),
        ("round.pass".into(), round.pass),
        ("round.typed".into(), round.typed),
        ("round.overrun".into(), round.overrun),
        ("round.wrong".into(), round.wrong),
        ("round.cycles".into(), round.cycles),
        ("round.epochs".into(), round.epochs),
        ("plans_run".into(), timed.len() as u64),
    ];
    if o.trace {
        let t = totals(tr.spans());
        let layers = &mut report.layers;
        layers.insert("sim.enumerate_ms", t["sim.enumerate"].mean_us() / 1e3);
        layers.insert("sim.run_us", t["sim.run"].mean_us());
        layers.insert("sim.pass", all.pass as f64);
        layers.insert("sim.typed", all.typed as f64);
        layers.insert("sim.overrun", all.overrun as f64);
        layers.insert("sim.wrong", all.wrong as f64);
        // The measured phase's time that no `sim.run` or `host.ref` span
        // covers: the benchmark's own loop and checks.
        let (from, to) = (tr.at_ns(start), tr.at_ns(stop));
        let covered =
            union_ns(tr.spans(), "sim.run", from, to) + union_ns(tr.spans(), "host.ref", from, to);
        layers.insert(
            "trace.uncovered",
            1.0 - covered as f64 / to.saturating_sub(from).max(1) as f64,
        );
        tr.write_jsonl(&o.out.join("spans-live.jsonl"))
            .map_err(|e| e.to_string())?;
        replay(o, &plans[..seen.len()], &seen, &mut report)?;
        crate::sort::vector_layer(o, VECTOR_SORTS, &mut report)?;
    }
    Ok(report)
}

#[derive(Default)]
struct ReplayCounts {
    runs: u64,
    cycles: u64,
    messages: u64,
    epochs: u64,
    census_cycles: u64,
    replay_cycles: u64,
    mismatches: u64,
}

/// Run each plan's healed select directly, spanning the offline
/// reference run and the healed run apart, and match the explorer's
/// cycle and epoch counts for the same plan.
fn replay_pass(
    plans: &[FaultPlan],
    seen: &[Option<(u64, u64)>],
    tr: &mut Tracer,
) -> Result<(ReplayCounts, Duration), String> {
    let lists = input();
    let mut all: Vec<u64> = lists.iter().flatten().copied().collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    let want = all[D - 1];
    let mut c = ReplayCounts::default();
    let t = Instant::now();
    let root = tr.enter("replay", 0);
    for (i, (plan, seen)) in plans.iter().zip(seen).enumerate() {
        let open = tr.enter("plan", i as u64);
        let prog = SelectProgram::new(lists.clone(), D).map_err(|e| e.to_string())?;
        let (_, l) = tr.span("heal.offline", i as u64, || {
            run_program_offline::<u64, _>(&prog)
        });
        let run = tr.span("heal.run", i as u64, || {
            SelfHealing::new(plan.clone())
                .backend(Backend::Vector)
                .stall_window(STALL_WINDOW)
                .cycle_budget(CYCLE_BUDGET)
                .run_program(P, K, prog)
        });
        tr.exit(open);
        c.runs += 1;
        let Ok(run) = run else {
            if seen.is_some() {
                c.mismatches += 1;
            }
            continue;
        };
        let epochs = run.epochs.len() as u64;
        let census = epochs * census_sweep(P, K);
        c.cycles += run.metrics.cycles;
        c.messages += run.metrics.messages;
        c.epochs += epochs;
        c.census_cycles += census;
        c.replay_cycles += run.metrics.cycles.saturating_sub(l + census);
        if run.output != want || seen.is_some_and(|s| s != (run.metrics.cycles, epochs)) {
            c.mismatches += 1;
        }
    }
    tr.exit(root);
    Ok((c, t.elapsed()))
}

fn replay(
    o: &Opts,
    plans: &[FaultPlan],
    seen: &[Option<(u64, u64)>],
    report: &mut Report,
) -> Result<(), String> {
    let passes = paired(|tr| replay_pass(plans, seen, tr))?;
    passes
        .tracer
        .write_jsonl(&o.out.join("spans-replay.jsonl"))
        .map_err(|e| e.to_string())?;
    report.tally.wrong += passes.passes.iter().map(|c| c.mismatches).sum::<u64>();
    let c = passes.traced();
    let t = totals(passes.tracer.spans());
    let runs = c.runs.max(1) as f64;
    let run = t.get("heal.run").copied().unwrap_or_default();
    let offline = t.get("heal.offline").copied().unwrap_or_default();
    // The healed run recomputes the offline reference inside: its own
    // time is the difference.
    let heal_self_ns = run.total_ns.saturating_sub(offline.total_ns) as f64;
    let l = &mut report.layers;
    l.insert("heal.run_ms_per_batch", heal_self_ns / runs / 1e6);
    l.insert(
        "heal.offline_us_per_batch",
        offline.total_ns as f64 / runs / 1e3,
    );
    l.insert(
        "heal.us_per_cycle",
        heal_self_ns / c.cycles.max(1) as f64 / 1e3,
    );
    l.insert("heal.epochs", c.epochs as f64 / runs);
    l.insert("heal.census_cycles", c.census_cycles as f64 / runs);
    l.insert("heal.replay_cycles", c.replay_cycles as f64 / runs);
    l.insert("engine.cycles", c.cycles as f64 / runs);
    l.insert("engine.messages", c.messages as f64 / runs);
    l.insert("engine.runs", c.runs as f64);
    l.insert("trace.overhead", passes.overhead);
    l.insert("trace.coverage", coverage(passes.tracer.spans(), "replay"));
    Ok(())
}
