//! The vector layer: Columnsort at p = 100,000 on the columnar
//! `StepProtocol` driver, taken apart and spanned. sim_pairs' traced run
//! replays a few of these sorts.

use crate::spans::{paired, totals, Tracer};
use crate::{Opts, Report};
use mcb_algos::sort::columnsort_net_cycles;
use mcb_algos::{columnsort_schedules, ColumnsortStep, Word};
use mcb_net::{Backend, Metrics, Network, ProcId};
use mcb_rng::Rng64;
use std::time::{Duration, Instant};

const P: usize = 100_000;
/// Padded column length and column count (`m ≥ k(k−1)`, `k | m`).
const M: usize = 1024;
const COLS: usize = 32;

/// One owner's column; `None` is a padding dummy.
type Col = Vec<Option<u64>>;
type Cols = Vec<Col>;

fn inputs(seed: u64) -> (Cols, Vec<u64>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let cols: Cols = (0..COLS)
        .map(|_| {
            (0..M)
                .map(|_| Some(rng.random_range(0..1_000_000u64)))
                .collect()
        })
        .collect();
    let mut want: Vec<u64> = cols.iter().flatten().flatten().copied().collect();
    want.sort_unstable_by(|a, b| b.cmp(a));
    (cols, want)
}

/// The sorted keys (column-major, descending) must equal the input's,
/// in exactly the paper's cycle count.
fn check(results: &[Option<Option<Col>>], metrics: &Metrics, want: &[u64]) -> bool {
    let got: Vec<u64> = results[..COLS]
        .iter()
        .flat_map(|r| r.iter().flatten().flatten().flatten().copied())
        .collect();
    got == want && metrics.cycles == columnsort_net_cycles(M, COLS)
}

/// `columnsort_steps` taken apart: the shared schedules, then the vector
/// driver over the step machines.
fn replay_pass(
    cols: &Cols,
    want: &[u64],
    sorts: usize,
    tr: &mut Tracer,
) -> Result<(u64, Metrics, Duration), String> {
    let mut reports = Vec::with_capacity(sorts);
    let t = Instant::now();
    let root = tr.enter("replay", 0);
    for i in 0..sorts as u64 {
        let open = tr.enter("batch", i);
        let scheds = tr.span("vector.schedule", i, || columnsort_schedules(M, COLS));
        let report = tr
            .span("vector.run", i, || {
                Network::new(P, COLS)
                    .backend(Backend::Vector)
                    .run_steps(|id: ProcId| {
                        let c = id.index();
                        let role = (c < COLS).then(|| (c, cols[c].clone()));
                        ColumnsortStep::new(
                            M,
                            COLS,
                            scheds.clone(),
                            role,
                            Word::Key,
                            Word::expect_key,
                        )
                    })
            })
            .map_err(|e| e.to_string())?;
        tr.span("vector.teardown", i, || drop(scheds));
        tr.exit(open);
        reports.push(report);
    }
    tr.exit(root);
    let wall = t.elapsed();
    // Checked (and dropped) outside the spans: this is the benchmark's
    // work, not the library's.
    let wrong = reports
        .iter()
        .filter(|r| !check(&r.results, &r.metrics, want))
        .count() as u64;
    let last = reports.pop().expect("sorts > 0").metrics;
    Ok((wrong, last, wall))
}

/// Replay `sorts` sorts of the seed's input through the vector layer, and
/// add its metrics to `report`. A whole sort is too noisy on a shared
/// host to be a workload of its own (see NOTES.md), so sim_pairs' traced
/// run calls this to keep the vector layer measured.
pub fn vector_layer(o: &Opts, sorts: usize, report: &mut Report) -> Result<(), String> {
    let (cols, want) = inputs(o.seed);
    let passes = paired(|tr| {
        let (wrong, m, wall) = replay_pass(&cols, &want, sorts, tr)?;
        Ok(((wrong, m), wall))
    })?;
    passes
        .tracer
        .write_jsonl(&o.out.join("spans-vector.jsonl"))
        .map_err(|e| e.to_string())?;
    report.tally.wrong += passes.passes.iter().map(|(wrong, _)| wrong).sum::<u64>();
    let m = &passes.traced().1;
    let t = totals(passes.tracer.spans());
    let l = &mut report.layers;
    l.insert("vector.schedule_ms", t["vector.schedule"].mean_us() / 1e3);
    l.insert("vector.run_s", t["vector.run"].mean_us() / 1e6);
    l.insert("vector.teardown_ms", t["vector.teardown"].mean_us() / 1e3);
    l.insert("vector.cycles", m.cycles as f64);
    l.insert("vector.messages", m.messages as f64);
    Ok(())
}
