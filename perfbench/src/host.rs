//! Host speed. On a shared VM the host's own speed moves by up to ~1.7×
//! over a few seconds (see NOTES.md), and thread hand-offs, which the
//! library's backends make on every simulated cycle, move with it. Two
//! fixed reference loads, timed between the workload's own measurements,
//! gauge that speed: hand-offs with a helper thread, and single-threaded
//! work on a buffer. Each timing the benchmark reports is scaled by the
//! gauge's nominal time ÷ its measured time around the timing, so it
//! reads in milliseconds on a host where the gauge takes its nominal
//! time. The reference loads are the benchmark's own code, so a change
//! to the library cannot move them.

use std::hint::black_box;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Round trips to the helper thread per hand-off sample. On one CPU each
/// is two blocking hand-offs.
const ROUND_TRIPS: u64 = 100;
/// Steps of the single-threaded load per sample, and its buffer's size in
/// words (256 KiB, so that it evicts little of what the workload caches).
const STEPS: u64 = 50_000;
const WORDS: usize = 1 << 15;
/// The gauges' times on the nominal host: the medians of their samples
/// over quiet runs on the 2-vCPU VM of NOTES.md.
const NOMINAL_HANDOFF_MS: f64 = 0.65;
const NOMINAL_COMPUTE_MS: f64 = 0.2;
/// A timing is scaled by the median of the samples within this distance.
const WINDOW: Duration = Duration::from_millis(500);
/// Fewer samples than this in the window: take this many nearest instead.
const NEAREST: usize = 5;

/// Which reference load a timing is scaled by.
#[derive(Clone, Copy)]
pub enum Gauge {
    /// Thread hand-offs: for work that runs on the library's backends.
    Handoff,
    /// Single-threaded work on a buffer: for the fault-grid enumeration.
    Compute,
}

/// The gauges' samples of one run, in time order, and the helper thread.
pub struct Host {
    to_helper: Option<Sender<u64>>,
    from_helper: Receiver<u64>,
    helper: Option<JoinHandle<()>>,
    buf: Vec<u64>,
    handoff: Vec<(Instant, f64)>,
    compute: Vec<(Instant, f64)>,
}

impl Host {
    pub fn new() -> Host {
        let (to_helper, from_main) = mpsc::channel::<u64>();
        let (to_main, from_helper) = mpsc::channel::<u64>();
        let helper = thread::Builder::new()
            .name("perfbench-host".into())
            .spawn(move || {
                for v in from_main {
                    if to_main.send(v + 1).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the host gauge's helper thread");
        Host {
            to_helper: Some(to_helper),
            from_helper,
            helper: Some(helper),
            buf: vec![0; WORDS],
            handoff: Vec::new(),
            compute: Vec::new(),
        }
    }

    /// Time each reference load once, now.
    pub fn sample(&mut self) {
        let to_helper = self.to_helper.as_ref().expect("helper is alive");
        let t = Instant::now();
        let mut v = 0;
        for _ in 0..ROUND_TRIPS {
            to_helper.send(v).expect("helper is alive");
            v = self.from_helper.recv().expect("helper is alive");
        }
        let mid = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ v;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = &mut self.buf[x as usize % WORDS];
            *w = w.wrapping_add(i);
        }
        black_box(&self.buf);
        let end = Instant::now();
        self.handoff.push((t + (mid - t) / 2, ms(mid - t)));
        self.compute.push((mid + (end - mid) / 2, ms(end - mid)));
    }

    pub fn len(&self) -> usize {
        self.handoff.len()
    }

    /// Median time of a gauge over the whole run, in ms.
    pub fn ref_ms(&self, gauge: Gauge) -> f64 {
        let mut all: Vec<f64> = self.samples(gauge).iter().map(|s| s.1).collect();
        crate::mix::median(&mut all)
    }

    /// The factor that scales a time measured around `at` to the nominal
    /// host: the gauge's nominal time ÷ the median of its samples within
    /// `WINDOW` of `at`. 1 when there are no samples.
    pub fn scale(&self, gauge: Gauge, at: Instant) -> f64 {
        let s = self.samples(gauge);
        if s.is_empty() {
            return 1.0;
        }
        let mut lo = s.partition_point(|x| x.0 + WINDOW < at);
        let mut hi = s.partition_point(|x| x.0 <= at + WINDOW);
        while hi - lo < NEAREST.min(s.len()) {
            if lo > 0 && (hi == s.len() || at - s[lo - 1].0 < s[hi].0 - at) {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        let mut near: Vec<f64> = s[lo..hi].iter().map(|x| x.1).collect();
        let nominal = match gauge {
            Gauge::Handoff => NOMINAL_HANDOFF_MS,
            Gauge::Compute => NOMINAL_COMPUTE_MS,
        };
        nominal / crate::mix::median(&mut near)
    }

    fn samples(&self, gauge: Gauge) -> &[(Instant, f64)] {
        match gauge {
            Gauge::Handoff => &self.handoff,
            Gauge::Compute => &self.compute,
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        self.to_helper = None;
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
