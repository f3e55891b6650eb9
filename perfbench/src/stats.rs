//! Order statistics over timing samples, and timings scaled by a
//! reference kernel.
//!
//! Other tenants of a shared host slow this process down in stretches of
//! seconds to minutes, by up to 1.6× (measured on a 2-core VM), so raw
//! job times from runs a few minutes apart differ by more than any
//! useful regression bound. A fixed kernel timed around each job slows
//! down with it (correlation 0.87 over 700 mcf jobs): over ten runs the
//! spread of the median mcf job time fell from 17% raw to 3.4% as a
//! job-to-kernel ratio.

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The reference kernel's time on a quiet reference host, in ms (its
/// minimum over 2,000 runs on a 2-core Xeon VM was 4.7 ms); scaled
/// timings are expressed as if taken there.
pub const CALIBRATION_REF_MS: f64 = 5.0;

/// Samples whose calibrations are pooled when scaling one sample.
const CAL_WINDOW: usize = 5;

/// Timings each bracketed by runs of the reference kernel
/// ([`calibrate`]), so that a stretch of interference slows the sample and
/// its calibration alike and cancels out of their ratio.
#[derive(Default)]
pub struct Scaled {
    raw_ms: Vec<f64>,
    cal_ms: Vec<f64>,
    /// The calibration that closed the previous sample opens the next.
    last_cal: Option<f64>,
}

impl Scaled {
    /// Time `f` between two calibrations.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = self.last_cal.take().unwrap_or_else(calibrate);
        let t0 = std::time::Instant::now();
        let result = f();
        let raw = t0.elapsed().as_secs_f64() * 1e3;
        let after = calibrate();
        self.last_cal = Some(after);
        self.push(raw, (before + after) / 2.0);
        result
    }

    /// Add a sample timed by the caller, with the mean calibration time
    /// around it.
    pub fn push(&mut self, raw_ms: f64, cal_ms: f64) {
        self.raw_ms.push(raw_ms);
        self.cal_ms.push(cal_ms);
    }

    pub fn len(&self) -> usize {
        self.raw_ms.len()
    }

    pub fn raw_ms(&self) -> &[f64] {
        &self.raw_ms
    }

    /// Every sample scaled to the reference host, in ms. Each sample is
    /// divided by the median calibration of the [`CAL_WINDOW`] samples
    /// around it, so one disturbed calibration does not skew its sample.
    pub fn scaled_samples(&self) -> Vec<f64> {
        let n = self.raw_ms.len();
        (0..n)
            .map(|i| {
                let lo = i
                    .saturating_sub(CAL_WINDOW / 2)
                    .min(n.saturating_sub(CAL_WINDOW));
                let hi = (lo + CAL_WINDOW).min(n);
                self.raw_ms[i] / median(&self.cal_ms[lo..hi]).max(1e-9) * CALIBRATION_REF_MS
            })
            .collect()
    }

    /// Median sample, scaled to the reference host, in ms.
    pub fn scaled_ms(&self) -> f64 {
        median(&self.scaled_samples())
    }
}

/// End-to-end metrics of a run of jobs of `refs` simulated references
/// each, with their set-ups.
pub fn report_jobs(out: &mut crate::Outcome, jobs: &Scaled, refs: f64, setups: &Scaled) {
    report_job_ms(out, jobs.raw_ms(), jobs.scaled_ms(), refs, setups);
}

/// [`report_jobs`] for a job time `job_ms` the caller has scaled from
/// the `raw` samples itself.
pub fn report_job_ms(
    out: &mut crate::Outcome,
    raw: &[f64],
    job_ms: f64,
    refs: f64,
    setups: &Scaled,
) {
    println!(
        "jobs: {}  raw job time p10/p50/p95: {:.3}/{:.3}/{:.3} ms  scaled median: {job_ms:.3} ms",
        raw.len(),
        quantile(raw, 0.1),
        median(raw),
        quantile(raw, 0.95)
    );
    out.metric("refs_per_s", refs / (job_ms / 1e3), "1/s");
    out.metric("job_ms", job_ms, "ms");
    out.metric("setup_s", setups.scaled_ms() / 1e3, "s");
}

/// A fixed reference kernel owned by the benchmark: an 8-way LRU cache
/// model over pseudo-random lines, the same kind of work as the
/// simulator's hot path but none of its code. Returns its time in ms.
pub fn calibrate() -> f64 {
    const WAYS: usize = 8;
    const SETS: usize = 4096;
    let mut tags = vec![0u64; WAYS * SETS];
    let mut stamps = vec![0u64; WAYS * SETS];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut misses = 0u64;
    let t0 = std::time::Instant::now();
    for now in 1..=CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = (x >> 6) & ((1 << 20) - 1);
        let set = (line as usize) % SETS;
        let tag = line / SETS as u64 + 1;
        let ways = set * WAYS..set * WAYS + WAYS;
        let mut victim = ways.start;
        let mut hit = false;
        for w in ways {
            if tags[w] == tag {
                stamps[w] = now;
                hit = true;
                break;
            }
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        if !hit {
            misses += 1;
            tags[victim] = tag;
            stamps[victim] = now;
        }
    }
    std::hint::black_box(misses);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Steps of the reference kernel per calibration.
const CALIBRATION_STEPS: u64 = 200_000;
