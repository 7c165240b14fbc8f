//! Gate check for the committed benchmark acceptance artifacts.
//!
//! Parses `BENCH_obs.json`, `BENCH_networks.json`, `BENCH_serve.json`,
//! `BENCH_vector.json` and `BENCH_backend.json` (by default the ones at the
//! repository root; override with positional args — e.g. freshly
//! regenerated copies) and enforces their acceptance gates.
//!
//! `BENCH_obs.json` (`crit_obs`) — three wall-clock ratio gates per
//! backend, each comparing two configs differing in one dimension:
//!
//! - `phase labels` within **1.25×** of the uninstrumented baseline,
//! - `monitor-off` (attached, unpolled) within **1.05×** of `phased`,
//! - `monitor-on` (polled at 1 kHz) within **1.25×** of `phased`.
//!
//! `BENCH_networks.json` (`tab_networks`, E19) — the comparator networks
//! must own the Columnsort infeasibility gap: at every swept shape below
//! the `m >= k(k-1)` floor, Columnsort is infeasible and the compiled
//! network sorts in the *exact* packed cycle count pinned here (the
//! counts are schedule-derived, so any drift is a compiler regression,
//! not noise), with the per-`k` crossover where it was recorded.
//!
//! `BENCH_serve.json` (`tab_serve`, E20) — the service's graceful
//! degradation: per batch shape, the seeded chaos/healthy cycle ratio
//! stays within `2 × ⌈k/k′⌉` (the §2 lemma dilation for `k-1` channel
//! deaths times a fixed healing allowance), and the live chaos sweep
//! completes at least 99.0% of admitted jobs. Wall-clock jobs/sec is
//! recorded but never gated.
//!
//! `BENCH_vector.json` (`crit_vector`, E17) — at every swept `p >= 2^14`
//! the vector backend's unit-cycle throughput is at least the pooled
//! backend's (`vector_over_pooled >= 1.0`), recomputed from the row's
//! `vector_units_per_s` and `pooled_units_per_s`.
//!
//! `BENCH_backend.json` (`crit_net`, E12c) — at every swept `p >= 2048`
//! the pooled backend is at least **5×** faster than the threaded one
//! (`speedup >= 5`), recomputed from the row's median seconds.
//!
//! Both files hold decimal columns, which `mcb_json` does not parse: every
//! decimal literal in them is read as an integer count of millionths first
//! (their writers print seconds with six decimals, so that is exact).
//! Neither file's stored ratios or `pass` flag is trusted.
//!
//! The gate thresholds are re-asserted here rather than trusted from the
//! files, so a regressed bench cannot loosen its own gate. Exits non-zero
//! on any parse error, missing gate, threshold mismatch, or failed ratio.
//!
//! ```text
//! cargo run -p mcb-bench --bin bench_gate [-- BENCH_obs.json [BENCH_networks.json \
//!     [BENCH_serve.json [BENCH_vector.json [BENCH_backend.json]]]]]
//! ```

use std::process::ExitCode;

use mcb_json::Json;

/// `(gate name, expected threshold in milli-units)`; three gates per
/// backend leg of the `crit_obs` matrix.
const EXPECTED: [(&str, u64); 6] = [
    ("pooled phase labels", 1250),
    ("pooled monitor-off", 1050),
    ("pooled monitor-on", 1250),
    ("vector phase labels", 1250),
    ("vector monitor-off", 1050),
    ("vector monitor-on", 1250),
];

/// `(gate name, exact packed cycle count)` for every Columnsort-gap shape
/// of the E19 sweep. Deterministic: the compiler emits the same schedule
/// every run, so equality, not a tolerance.
const EXPECTED_NET: [(&str, u64); 8] = [
    ("gap n=8 k=4", 10),
    ("gap n=16 k=4", 32),
    ("gap n=32 k=4", 96),
    ("gap n=16 k=8", 18),
    ("gap n=32 k=8", 50),
    ("gap n=64 k=8", 138),
    ("gap n=128 k=8", 370),
    ("gap n=256 k=8", 962),
];

/// `(k, smallest swept n where Columnsort beats the network on cycles)`.
const EXPECTED_CROSSOVER: [(u64, u64); 3] = [(2, 4), (4, 48), (8, 448)];

/// `(gate name, ratio ceiling in milli-units)` for the service bench's
/// chaos-dilation gates: the seeded chaos/healthy cycle ratio per batch
/// shape must stay within `2 * ⌈k/k′⌉ = 6×` (the §2 lemma's dilation for
/// `k = 3` with `k-1` deaths, times the fixed healing allowance).
const EXPECTED_SERVE: [(&str, u64); 3] = [
    ("dilation batch=4", 6000),
    ("dilation batch=8", 6000),
    ("dilation batch=16", 6000),
];

/// Minimum fraction (milli) of admitted jobs that must *complete* (not
/// just terminate) in the live chaos sweep.
const EXPECTED_SERVE_COMPLETION: u64 = 990;

/// Smallest `p` at which `crit_vector`'s vector throughput must match the
/// pooled backend's.
const VECTOR_GATE_MIN_P: u64 = 1 << 14;

/// Smallest `p` at which `crit_net`'s pooled backend must beat the
/// threaded one by [`BACKEND_MIN_SPEEDUP`].
const BACKEND_GATE_MIN_P: u64 = 2048;
const BACKEND_MIN_SPEEDUP: u64 = 5;

/// Parse the file at `path`; with `decimals`, read every decimal literal
/// as an integer count of millionths (see [`decimals_as_millionths`]).
fn load(path: &str, decimals: bool) -> Option<Json> {
    let raw = match std::fs::read_to_string(path) {
        Ok(s) if decimals => decimals_as_millionths(&s),
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            return None;
        }
    };
    match Json::parse(raw.trim()) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("bench_gate: {path} is not valid (integer-only) JSON: {e}");
            None
        }
    }
}

/// `raw` with every decimal literal outside a string rewritten as the
/// integer count of millionths it denotes (`0.069522` → `69522`, `2.94` →
/// `2940000`). A literal with more than six decimals is left as it is, so
/// the parser rejects it rather than the gate rounding it.
fn decimals_as_millionths(raw: &str) -> String {
    let (mut out, mut rest, mut in_string) = (String::new(), raw, false);
    while let Some(c) = rest.chars().next() {
        if !in_string && c.is_ascii_digit() {
            let len = rest
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(rest.len());
            let literal = &rest[..len];
            match literal.split_once('.') {
                Some((int, frac)) if frac.len() <= 6 => {
                    let digits = format!("{int}{frac:0<6}");
                    let trimmed = digits.trim_start_matches('0');
                    out.push_str(if trimmed.is_empty() { "0" } else { trimmed });
                }
                _ => out.push_str(literal),
            }
            rest = &rest[len..];
            continue;
        }
        match c {
            '"' => in_string = !in_string,
            '\\' if in_string => {
                // Copy the escaped character too, so `\"` does not end the string.
                let escaped = rest[1..].chars().next().map_or(0, char::len_utf8);
                out.push_str(&rest[..1 + escaped]);
                rest = &rest[1 + escaped..];
                continue;
            }
            _ => {}
        }
        out.push(c);
        rest = &rest[c.len_utf8()..];
    }
    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let obs_path = args
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_owned());
    let net_path = args.next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_networks.json").to_owned()
    });
    let serve_path = args.next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_owned()
    });
    let vector_path = args.next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_vector.json").to_owned()
    });
    let backend_path = args.next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backend.json").to_owned()
    });
    let obs_ok = check_obs(&obs_path);
    let net_ok = check_networks(&net_path);
    let serve_ok = check_serve(&serve_path);
    let vector_ok = check_vector(&vector_path);
    let backend_ok = check_backend(&backend_path);
    if obs_ok && net_ok && serve_ok && vector_ok && backend_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_obs(path: &str) -> bool {
    let Some(doc) = load(path, false) else {
        return false;
    };
    let Some(acceptance) = doc.get("acceptance").and_then(Json::as_arr) else {
        eprintln!("bench_gate: {path} has no acceptance array");
        return false;
    };

    let mut failed = false;
    for (name, want_gate) in EXPECTED {
        let Some(entry) = acceptance
            .iter()
            .find(|e| e.get("gate").and_then(Json::as_str) == Some(name))
        else {
            eprintln!("bench_gate: missing gate entry {name:?}");
            failed = true;
            continue;
        };
        let gate = entry.get("gate_milli").and_then(Json::as_u64);
        let ratio = entry.get("ratio_milli").and_then(Json::as_u64);
        let (Some(gate), Some(ratio)) = (gate, ratio) else {
            eprintln!("bench_gate: gate {name:?} lacks integer ratio_milli/gate_milli");
            failed = true;
            continue;
        };
        if gate != want_gate {
            eprintln!(
                "bench_gate: gate {name:?} threshold drifted: recorded {gate}, expected {want_gate}"
            );
            failed = true;
            continue;
        }
        let ok = ratio <= gate;
        println!(
            "bench_gate: {name}: {}.{:03}x vs {}.{:03}x -> {}",
            ratio / 1000,
            ratio % 1000,
            gate / 1000,
            gate % 1000,
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if doc.get("pass") != Some(&Json::Bool(true)) {
        eprintln!("bench_gate: artifact's own pass flag is not true");
        failed = true;
    }
    if !failed {
        println!("bench_gate: all observability gates hold ({path})");
    }
    !failed
}

fn check_networks(path: &str) -> bool {
    let Some(doc) = load(path, false) else {
        return false;
    };
    let Some(acceptance) = doc.get("acceptance").and_then(Json::as_arr) else {
        eprintln!("bench_gate: {path} has no acceptance array");
        return false;
    };

    let mut failed = false;
    for (name, want_cycles) in EXPECTED_NET {
        let Some(entry) = acceptance
            .iter()
            .find(|e| e.get("gate").and_then(Json::as_str) == Some(name))
        else {
            eprintln!("bench_gate: missing network gate entry {name:?}");
            failed = true;
            continue;
        };
        let cycles = entry.get("net_cycles").and_then(Json::as_u64);
        let ok = cycles == Some(want_cycles) && entry.get("pass") == Some(&Json::Bool(true));
        println!(
            "bench_gate: {name}: {} packed cycles (expected exactly {want_cycles}) -> {}",
            cycles.map_or("?".into(), |c| c.to_string()),
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    let crossovers = doc.get("crossover").and_then(Json::as_arr);
    for (k, want_n) in EXPECTED_CROSSOVER {
        let at = crossovers.and_then(|arr| {
            arr.iter()
                .find(|e| e.get("k").and_then(Json::as_u64) == Some(k))
                .and_then(|e| e.get("columnsort_wins_from_n").and_then(Json::as_u64))
        });
        let ok = at == Some(want_n);
        println!(
            "bench_gate: crossover k={k}: columnsort wins from n={} (expected {want_n}) -> {}",
            at.map_or("?".into(), |n| n.to_string()),
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if doc.get("pass") != Some(&Json::Bool(true)) {
        eprintln!("bench_gate: networks artifact's own pass flag is not true");
        failed = true;
    }
    if !failed {
        println!("bench_gate: all network crossover gates hold ({path})");
    }
    !failed
}

fn check_serve(path: &str) -> bool {
    let Some(doc) = load(path, false) else {
        return false;
    };
    let Some(acceptance) = doc.get("acceptance").and_then(Json::as_arr) else {
        eprintln!("bench_gate: {path} has no acceptance array");
        return false;
    };

    let mut failed = false;
    for (name, want_gate) in EXPECTED_SERVE {
        let Some(entry) = acceptance
            .iter()
            .find(|e| e.get("gate").and_then(Json::as_str) == Some(name))
        else {
            eprintln!("bench_gate: missing serve gate entry {name:?}");
            failed = true;
            continue;
        };
        let gate = entry.get("gate_milli").and_then(Json::as_u64);
        let ratio = entry.get("ratio_milli").and_then(Json::as_u64);
        let (Some(gate), Some(ratio)) = (gate, ratio) else {
            eprintln!("bench_gate: serve gate {name:?} lacks ratio_milli/gate_milli");
            failed = true;
            continue;
        };
        if gate != want_gate {
            eprintln!(
                "bench_gate: serve gate {name:?} threshold drifted: recorded {gate}, expected {want_gate}"
            );
            failed = true;
            continue;
        }
        let ok = ratio <= gate;
        println!(
            "bench_gate: {name}: chaos/healthy {}.{:03}x vs {}.{:03}x ceiling -> {}",
            ratio / 1000,
            ratio % 1000,
            gate / 1000,
            gate % 1000,
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    // Degraded-mode completion floor: chaos slows the service, it may
    // not make it drop admitted work.
    let completion = acceptance
        .iter()
        .find(|e| e.get("gate").and_then(Json::as_str) == Some("chaos completion"));
    match completion {
        Some(entry) => {
            let floor = entry.get("floor_milli").and_then(Json::as_u64);
            let got = entry.get("completion_milli").and_then(Json::as_u64);
            let (Some(floor), Some(got)) = (floor, got) else {
                eprintln!("bench_gate: chaos completion gate lacks completion_milli/floor_milli");
                return false;
            };
            if floor != EXPECTED_SERVE_COMPLETION {
                eprintln!(
                    "bench_gate: completion floor drifted: recorded {floor}, expected {EXPECTED_SERVE_COMPLETION}"
                );
                failed = true;
            }
            let ok = got >= floor;
            println!(
                "bench_gate: chaos completion: {}.{:01}% vs {}.{:01}% floor -> {}",
                got / 10,
                got % 10,
                floor / 10,
                floor % 10,
                if ok { "pass" } else { "FAIL" }
            );
            failed |= !ok;
        }
        None => {
            eprintln!("bench_gate: missing chaos completion gate");
            failed = true;
        }
    }
    if doc.get("pass") != Some(&Json::Bool(true)) {
        eprintln!("bench_gate: serve artifact's own pass flag is not true");
        failed = true;
    }
    if !failed {
        println!("bench_gate: all service chaos gates hold ({path})");
    }
    !failed
}

/// The rows of `doc[key]` with `p >= min_p`; `None` (after a message) when
/// the array is missing or no row reaches `min_p`, so an empty sweep
/// cannot pass.
fn gated_rows<'a>(doc: &'a Json, key: &str, min_p: u64, path: &str) -> Option<Vec<&'a Json>> {
    let Some(rows) = doc.get(key).and_then(Json::as_arr) else {
        eprintln!("bench_gate: {path} has no {key} array");
        return None;
    };
    let gated: Vec<&Json> = rows
        .iter()
        .filter(|r| {
            r.get("p")
                .and_then(Json::as_u64)
                .is_some_and(|p| p >= min_p)
        })
        .collect();
    if gated.is_empty() {
        eprintln!("bench_gate: {path} has no {key} row at p >= {min_p}");
        return None;
    }
    Some(gated)
}

fn check_vector(path: &str) -> bool {
    let Some(doc) = load(path, true) else {
        return false;
    };
    let Some(rows) = gated_rows(&doc, "dispatch_sweep", VECTOR_GATE_MIN_P, path) else {
        return false;
    };
    let mut failed = false;
    for row in rows {
        let field = |name| row.get(name).and_then(Json::as_u64);
        let p = field("p").unwrap_or(0);
        let (Some(vector), Some(pooled)) =
            (field("vector_units_per_s"), field("pooled_units_per_s"))
        else {
            eprintln!("bench_gate: vector row p={p} lacks integer units_per_s columns");
            failed = true;
            continue;
        };
        let ok = pooled > 0 && vector >= pooled;
        let ratio = (vector * 100).checked_div(pooled).unwrap_or(0);
        println!(
            "bench_gate: vector p={p}: {}.{:02}x pooled unit-cycle throughput vs 1.00x floor -> {}",
            ratio / 100,
            ratio % 100,
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if !failed {
        println!("bench_gate: vector >= pooled throughput at every p >= 2^14 ({path})");
    }
    !failed
}

fn check_backend(path: &str) -> bool {
    let Some(doc) = load(path, true) else {
        return false;
    };
    let Some(rows) = gated_rows(&doc, "results", BACKEND_GATE_MIN_P, path) else {
        return false;
    };
    let mut failed = false;
    for row in rows {
        // Median seconds, read as microseconds (see `decimals_as_millionths`).
        let field = |name| row.get(name).and_then(Json::as_u64);
        let p = field("p").unwrap_or(0);
        let (Some(threaded), Some(pooled)) = (field("threaded_median_s"), field("pooled_median_s"))
        else {
            eprintln!("bench_gate: backend row p={p} lacks median_s columns");
            failed = true;
            continue;
        };
        let ok = pooled > 0 && threaded >= BACKEND_MIN_SPEEDUP * pooled;
        let speedup = (threaded * 100).checked_div(pooled).unwrap_or(0);
        println!(
            "bench_gate: backend p={p}: pooled {}.{:02}x faster than threaded vs \
             {BACKEND_MIN_SPEEDUP}x floor -> {}",
            speedup / 100,
            speedup % 100,
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if !failed {
        println!("bench_gate: pooled >= 5x threaded at every p >= 2048 ({path})");
    }
    !failed
}

#[cfg(test)]
mod tests {
    use super::decimals_as_millionths;

    #[test]
    fn decimals_become_millionths_outside_strings_only() {
        let raw = r#"{"s": 0.069522, "r": 2.94, "p": 1024, "t": "v1.5 \"0.25\"", "x": 1.1234567}"#;
        assert_eq!(
            decimals_as_millionths(raw),
            r#"{"s": 69522, "r": 2940000, "p": 1024, "t": "v1.5 \"0.25\"", "x": 1.1234567}"#
        );
        assert_eq!(
            decimals_as_millionths("[0.000000, 115.74393]"),
            "[0, 115743930]"
        );
    }
}
