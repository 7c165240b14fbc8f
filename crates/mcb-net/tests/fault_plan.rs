//! `FaultPlan` against golden repro lines and a naive reference model.
//!
//! The golden lines pin every chaos seed and the JSONL repro format byte
//! for byte: a change to `FaultPlan::random`'s draw or thinning order, or
//! to the canonical event order, shows up here first.
//!
//! The differential test rebuilds the documented semantics independently
//! (maps for the permanent faults, sets for the transients) and checks
//! every public query of `FaultPlan::from_events` and the builders against
//! it on seeded random event lists.

use mcb_net::{ChanId, ChaosOpts, FaultEvent, FaultKind, FaultPlan, FaultSummary, ProcId};
use mcb_rng::Rng64;
use std::collections::{BTreeMap, BTreeSet};

/// Seeded plans whose `to_jsonl()` lines are pinned in
/// `data/fault_plan_pins.jsonl`, in this order.
fn pinned_plans() -> Vec<(String, FaultPlan)> {
    let stall_heavy = ChaosOpts {
        horizon: 8,
        deaths: 1,
        drops: 3,
        corrupts: 2,
        stalls: 6,
        max_stall: 3,
        crashes: 1,
        bursts: 0,
        burst_len: 0,
    };
    // Dense enough that `random`'s thinning removes transients and stalls.
    let dense = ChaosOpts {
        horizon: 8,
        drops: 40,
        corrupts: 40,
        stalls: 20,
        max_stall: 3,
        ..ChaosOpts::default()
    };
    let sets = [
        ("default", ChaosOpts::default(), 4, 3),
        ("unplanned", ChaosOpts::unplanned(64), 4, 3),
        ("crash_and_death", ChaosOpts::crash_and_death(64), 4, 3),
        ("bursty", ChaosOpts::bursty(64), 4, 3),
        ("stall_heavy", stall_heavy, 4, 3),
        ("dense", dense, 3, 2),
    ];
    let mut out = Vec::new();
    for (name, opts, p, k) in sets {
        for seed in [1u64, 7, 42] {
            out.push((
                format!("{name} seed {seed}"),
                FaultPlan::random(seed, p, k, &opts),
            ));
        }
    }
    // Multi-cycle stalls on two processors: the line lists stalls by
    // (cycle, proc), not in `FaultEvent`'s derived (proc, cycle) order.
    let hand = FaultPlan::new(4, 3)
        .stall_proc(ProcId(2), 3, 3)
        .corrupt_message(4, ChanId(0))
        .kill_channel(ChanId(1), 6)
        .stall_proc(ProcId(0), 4, 2)
        .drop_message(2, ChanId(2))
        .crash_proc(ProcId(3), 9)
        .drop_message(1, ChanId(0));
    out.push(("hand-built".to_string(), hand));
    out
}

#[test]
fn golden_repro_lines() {
    let pins: Vec<&str> = include_str!("data/fault_plan_pins.jsonl").lines().collect();
    let plans = pinned_plans();
    assert_eq!(pins.len(), plans.len(), "one pinned line per plan");
    for ((name, plan), pin) in plans.iter().zip(pins) {
        assert_eq!(plan.to_jsonl(), pin, "{name}");
        assert_eq!(
            &FaultPlan::from_jsonl(pin).expect("pin parses"),
            plan,
            "{name}"
        );
    }
}

/// The documented semantics, kept deliberately naive: one map per
/// permanent kind (the last event for a party wins), one set per
/// transient kind.
#[derive(Debug, PartialEq)]
struct Model {
    p: usize,
    k: usize,
    deaths: BTreeMap<usize, u64>,
    crashes: BTreeMap<usize, u64>,
    drops: BTreeSet<(u64, usize)>,
    corrupts: BTreeSet<(u64, usize)>,
    stalls: BTreeSet<(u64, usize)>,
}

impl Model {
    fn new(p: usize, k: usize, events: &[FaultEvent]) -> Model {
        let mut m = Model {
            p,
            k,
            deaths: BTreeMap::new(),
            crashes: BTreeMap::new(),
            drops: BTreeSet::new(),
            corrupts: BTreeSet::new(),
            stalls: BTreeSet::new(),
        };
        for &e in events {
            match e {
                FaultEvent::Death { chan, at } => {
                    m.deaths.insert(chan, at);
                }
                FaultEvent::Crash { proc, at } => {
                    m.crashes.insert(proc, at);
                }
                FaultEvent::Drop { at, chan } => {
                    m.drops.insert((at, chan));
                }
                FaultEvent::Corrupt { at, chan } => {
                    m.corrupts.insert((at, chan));
                }
                FaultEvent::Stall { proc, at } => {
                    m.stalls.insert((at, proc));
                }
            }
        }
        m
    }

    fn is_dead(&self, chan: usize, cycle: u64) -> bool {
        self.deaths.get(&chan).is_some_and(|&d| cycle >= d)
    }

    fn is_stalled(&self, proc: usize, cycle: u64) -> bool {
        self.stalls.contains(&(cycle, proc))
    }

    fn write_fault(&self, proc: usize, chan: usize, cycle: u64) -> Option<FaultKind> {
        if self.is_stalled(proc, cycle) {
            Some(FaultKind::Stall)
        } else if self.is_dead(chan, cycle) {
            Some(FaultKind::ChannelDeath)
        } else if self.drops.contains(&(cycle, chan)) {
            Some(FaultKind::Drop)
        } else if self.corrupts.contains(&(cycle, chan)) {
            Some(FaultKind::Corrupt)
        } else {
            None
        }
    }

    fn summary(&self, seed: u64) -> FaultSummary {
        FaultSummary {
            seed,
            deaths: self.deaths.len() as u64,
            drops: self.drops.len() as u64,
            corrupts: self.corrupts.len() as u64,
            crashes: self.crashes.len() as u64,
            stalls: self.stalls.len() as u64,
        }
    }

    fn events(&self) -> Vec<FaultEvent> {
        let mut ev = Vec::new();
        ev.extend(
            self.deaths
                .iter()
                .map(|(&chan, &at)| FaultEvent::Death { chan, at }),
        );
        ev.extend(
            self.crashes
                .iter()
                .map(|(&proc, &at)| FaultEvent::Crash { proc, at }),
        );
        ev.extend(
            self.drops
                .iter()
                .map(|&(at, chan)| FaultEvent::Drop { at, chan }),
        );
        ev.extend(
            self.corrupts
                .iter()
                .map(|&(at, chan)| FaultEvent::Corrupt { at, chan }),
        );
        ev.extend(
            self.stalls
                .iter()
                .map(|&(at, proc)| FaultEvent::Stall { proc, at }),
        );
        ev
    }
}

/// A random event list over few parties and cycles, so duplicate
/// transients and repeated deaths or crashes of one party are common.
fn random_events(rng: &mut Rng64, p: usize, k: usize) -> Vec<FaultEvent> {
    let n = rng.random_range(0..14usize);
    (0..n)
        .map(|_| {
            let at = rng.random_range(0..10u64);
            let chan = rng.random_range(0..k);
            let proc = rng.random_range(0..p);
            match rng.random_range(0..5u32) {
                0 => FaultEvent::Death { chan, at },
                1 => FaultEvent::Crash { proc, at },
                2 => FaultEvent::Drop { at, chan },
                3 => FaultEvent::Corrupt { at, chan },
                _ => FaultEvent::Stall { proc, at },
            }
        })
        .collect()
}

/// The same plan through the builder methods, event by event.
fn built(p: usize, k: usize, events: &[FaultEvent]) -> FaultPlan {
    events
        .iter()
        .fold(FaultPlan::new(p, k), |plan, &e| match e {
            FaultEvent::Death { chan, at } => plan.kill_channel(ChanId(chan as u32), at),
            FaultEvent::Crash { proc, at } => plan.crash_proc(ProcId(proc as u32), at),
            FaultEvent::Drop { at, chan } => plan.drop_message(at, ChanId(chan as u32)),
            FaultEvent::Corrupt { at, chan } => plan.corrupt_message(at, ChanId(chan as u32)),
            FaultEvent::Stall { proc, at } => plan.stall_proc(ProcId(proc as u32), at, 1),
        })
}

fn assert_matches(plan: &FaultPlan, model: &Model, ctx: &str) {
    assert_eq!((plan.p(), plan.k()), (model.p, model.k), "{ctx}");
    assert_eq!(plan.events(), model.events(), "{ctx}: events");
    assert_eq!(plan.summary(), model.summary(plan.seed()), "{ctx}: summary");
    assert_eq!(
        plan.min_live(),
        model.k - model.deaths.len(),
        "{ctx}: min_live"
    );
    // One cycle past the last event, one party past the shape.
    for t in 0..12u64 {
        for chan in 0..=model.k {
            assert_eq!(
                plan.is_dead(chan, t),
                model.is_dead(chan, t),
                "{ctx}: is_dead"
            );
        }
        for proc in 0..=model.p {
            assert_eq!(plan.is_stalled(proc, t), model.is_stalled(proc, t), "{ctx}");
            for chan in 0..=model.k {
                assert_eq!(
                    plan.write_fault(proc, chan, t),
                    model.write_fault(proc, chan, t),
                    "{ctx}: write_fault({proc}, {chan}, {t})"
                );
            }
        }
    }
    for proc in 0..=model.p {
        assert_eq!(
            plan.crash_cycle(proc),
            model.crashes.get(&proc).copied(),
            "{ctx}: crash_cycle({proc})"
        );
    }
}

#[test]
fn queries_match_reference_model() {
    let mut rng = Rng64::seed_from_u64(0x5eed_fa17);
    for case in 0..400 {
        let p = rng.random_range(1..6usize);
        let k = rng.random_range(1..5usize);
        let events = random_events(&mut rng, p, k);
        let model = Model::new(p, k, &events);
        let plan = FaultPlan::from_events(p, k, &events);
        let ctx = format!("case {case} (p={p}, k={k}) {events:?}");
        assert_matches(&plan, &model, &ctx);
        assert_eq!(built(p, k, &events), plan, "{ctx}: builders");
        assert_eq!(FaultPlan::from_events(p, k, &plan.events()), plan, "{ctx}");

        // A shuffled copy is the same plan exactly when the model agrees
        // (only the order of repeated deaths or crashes can matter).
        let mut shuffled = events.clone();
        rng.shuffle(&mut shuffled);
        let other = FaultPlan::from_events(p, k, &shuffled);
        assert_eq!(other == plan, Model::new(p, k, &shuffled) == model, "{ctx}");

        // An unrelated list on the same shape.
        let fresh = random_events(&mut rng, p, k);
        let other = FaultPlan::from_events(p, k, &fresh);
        assert_eq!(
            other == plan,
            Model::new(p, k, &fresh) == model,
            "{ctx} vs {fresh:?}"
        );
    }
}
