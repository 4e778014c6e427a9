//! Open-loop workload sources: where a service's jobs come from.
//!
//! The paper (and PR 3's `SortService::run`) measured the makespan of a
//! *closed* job list — every arrival known up front. A service facing
//! millions of users sees an **open loop** instead: arrivals keep coming
//! at some offered rate whether or not the fleet keeps up, and the
//! interesting numbers are sustained throughput and latency *under* that
//! load. The [`Workload`] trait is the event-source API the redesigned
//! [`SortService::serve`](crate::SortService::serve) consumes:
//!
//! * [`TraceWorkload`] — replay an explicit `Vec<(SimTime, SortJob)>`
//!   (the old closed-list path, bit-identical to PR 3's `run`);
//! * [`OpenLoop`] — seeded arrival-process generators over a weighted
//!   [`JobMix`]:
//!   * [`ArrivalProcess::Poisson`] — memoryless arrivals at a fixed rate;
//!   * [`ArrivalProcess::Diurnal`] — a sinusoidally modulated Poisson
//!     process (peak/trough traffic), sampled by Lewis–Shedler thinning;
//!   * [`ArrivalProcess::Bursty`] — a two-state Markov-modulated Poisson
//!     process (MMPP): calm base load with exponentially-dwelling bursts.
//!
//! Everything is deterministic: a generator is seeded through
//! [`msort_data::Rng`] (xoshiro256++), so the same seed yields the same
//! timed arrivals — and therefore the same service run — on every
//! platform, replay after replay.

use crate::job::SortJob;
use msort_data::Rng;
use msort_sim::{SimDuration, SimTime};

/// An open-loop source of timed job arrivals.
///
/// Implementations yield arrivals with **non-decreasing** timestamps;
/// `None` means the source is exhausted (all generators are finite — a
/// job budget and/or a time horizon bounds them — so a service run
/// terminates). The trait is object-safe: `Box<dyn Workload>` works.
pub trait Workload {
    /// The next timed arrival, or `None` when the source is exhausted.
    fn next_arrival(&mut self) -> Option<(SimTime, SortJob)>;

    /// Drain the source into a vector (for inspection and tests).
    fn collect_arrivals(&mut self) -> Vec<(SimTime, SortJob)>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(a) = self.next_arrival() {
            out.push(a);
        }
        out
    }
}

/// Replay an explicit job list — the closed-loop adapter. The list is
/// stably sorted by timestamp (ties keep submission order) and replayed
/// verbatim.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    arrivals: Vec<(SimTime, SortJob)>,
    next: usize,
}

impl TraceWorkload {
    /// Wrap `arrivals` (any order; stably sorted by timestamp here).
    #[must_use]
    pub fn new(mut arrivals: Vec<(SimTime, SortJob)>) -> Self {
        arrivals.sort_by_key(|&(t, _)| t);
        Self { arrivals, next: 0 }
    }

    /// Arrivals left to replay.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.arrivals.len() - self.next
    }
}

impl Workload for TraceWorkload {
    fn next_arrival(&mut self) -> Option<(SimTime, SortJob)> {
        let a = self.arrivals.get(self.next).cloned()?;
        self.next += 1;
        Some(a)
    }
}

/// A weighted mix of job shapes an [`OpenLoop`] generator draws from.
///
/// Each arrival picks one template with probability proportional to its
/// weight, then replaces the template's input seed with a fresh draw from
/// the generator's stream — so every arrival sorts distinct data while
/// the whole sequence stays a pure function of the workload seed.
#[derive(Debug, Clone)]
pub struct JobMix {
    templates: Vec<(SortJob, f64)>,
    total_weight: f64,
}

impl JobMix {
    /// A mix containing just `job` (weight 1).
    #[must_use]
    pub fn of(job: SortJob) -> Self {
        Self {
            templates: vec![(job, 1.0)],
            total_weight: 1.0,
        }
    }

    /// Add `job` with relative `weight` (> 0).
    ///
    /// # Panics
    /// Panics if `weight` is not strictly positive.
    #[must_use]
    pub fn and(mut self, job: SortJob, weight: f64) -> Self {
        assert!(weight > 0.0, "job-mix weight must be positive");
        self.templates.push((job, weight));
        self.total_weight += weight;
        self
    }

    /// The templates and their weights.
    #[must_use]
    pub fn templates(&self) -> &[(SortJob, f64)] {
        &self.templates
    }

    /// Draw one job: weighted template choice + a fresh input seed.
    fn sample(&self, rng: &mut Rng) -> SortJob {
        let mut x = rng.f64() * self.total_weight;
        let mut job = &self.templates[self.templates.len() - 1].0;
        for (j, w) in &self.templates {
            if x < *w {
                job = j;
                break;
            }
            x -= w;
        }
        job.clone().with_seed(rng.u64())
    }
}

/// The arrival process an [`OpenLoop`] generator follows. Rates are jobs
/// per second of **simulated** time.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate — exponential
    /// inter-arrival times.
    Poisson {
        /// Offered load, jobs per simulated second.
        rate: f64,
    },
    /// Sinusoidally modulated Poisson process:
    /// `λ(t) = rate · (1 + amplitude · sin(2πt / period))`, sampled by
    /// thinning against the peak rate. Models daily peak/trough traffic
    /// (compressed to simulation scale).
    Diurnal {
        /// Mean offered load, jobs per simulated second.
        rate: f64,
        /// Relative swing in `[0, 1]`: 1 means the trough is silent and
        /// the peak is double the mean.
        amplitude: f64,
        /// One full peak-trough cycle.
        period: SimDuration,
    },
    /// Two-state Markov-modulated Poisson process: calm arrivals at
    /// `base_rate` with bursts at `burst_rate`, each state dwelling an
    /// exponentially distributed time.
    Bursty {
        /// Calm-state offered load, jobs per simulated second.
        base_rate: f64,
        /// Burst-state offered load (≥ `base_rate` to mean anything).
        burst_rate: f64,
        /// Mean dwell time in the calm state.
        mean_calm: SimDuration,
        /// Mean dwell time in the burst state.
        mean_burst: SimDuration,
    },
}

impl ArrivalProcess {
    /// Long-run mean offered load in jobs per simulated second.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Diurnal { rate, .. } => rate,
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => {
                let calm = mean_calm.as_secs_f64();
                let burst = mean_burst.as_secs_f64();
                (base_rate * calm + burst_rate * burst) / (calm + burst)
            }
        }
    }
}

/// A seeded open-loop arrival generator: an [`ArrivalProcess`] paced
/// stream of jobs drawn from a [`JobMix`], bounded by a job budget and
/// optionally a time horizon.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    process: ArrivalProcess,
    mix: JobMix,
    rng: Rng,
    /// Candidate cursor: the time the process has been sampled up to.
    clock: SimTime,
    /// Jobs still to emit.
    remaining: u64,
    /// Hard stop: no arrival at or beyond this time.
    horizon: Option<SimTime>,
    /// MMPP state: `true` while bursting, and when the dwell ends.
    bursting: bool,
    state_until: SimTime,
}

impl OpenLoop {
    /// A generator emitting `jobs` arrivals of `mix` under `process`,
    /// seeded by `seed`.
    ///
    /// # Panics
    /// Panics if any configured rate, amplitude, or dwell is out of range.
    #[must_use]
    pub fn new(process: ArrivalProcess, mix: JobMix, jobs: u64, seed: u64) -> Self {
        match process {
            ArrivalProcess::Poisson { rate } => assert!(rate > 0.0, "rate must be positive"),
            ArrivalProcess::Diurnal {
                rate,
                amplitude,
                period,
            } => {
                assert!(rate > 0.0, "rate must be positive");
                assert!(
                    (0.0..=1.0).contains(&amplitude),
                    "amplitude must be in [0, 1]"
                );
                assert!(period > SimDuration::ZERO, "period must be positive");
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => {
                assert!(
                    base_rate > 0.0 && burst_rate > 0.0,
                    "rates must be positive"
                );
                assert!(
                    mean_calm > SimDuration::ZERO && mean_burst > SimDuration::ZERO,
                    "dwell times must be positive"
                );
            }
        }
        let mut rng = Rng::seed_from_u64(seed);
        // MMPP runs start calm; the first dwell is sampled up front so the
        // state machine never sees an empty interval.
        let state_until = match process {
            ArrivalProcess::Bursty { mean_calm, .. } => {
                SimTime::ZERO + SimDuration::from_secs_f64(rng.exp(1.0 / mean_calm.as_secs_f64()))
            }
            _ => SimTime::ZERO,
        };
        Self {
            process,
            mix,
            rng,
            clock: SimTime::ZERO,
            remaining: jobs,
            horizon: None,
            bursting: false,
            state_until,
        }
    }

    /// Convenience: a Poisson generator at `rate` jobs/s.
    #[must_use]
    pub fn poisson(rate: f64, mix: JobMix, jobs: u64, seed: u64) -> Self {
        Self::new(ArrivalProcess::Poisson { rate }, mix, jobs, seed)
    }

    /// Stop emitting at `horizon` even if the job budget is not spent.
    #[must_use]
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// The configured arrival process.
    #[must_use]
    pub fn process(&self) -> ArrivalProcess {
        self.process
    }

    /// Advance the cursor to the next arrival instant.
    fn next_time(&mut self) -> SimTime {
        match self.process {
            ArrivalProcess::Poisson { rate } => {
                self.clock += SimDuration::from_secs_f64(self.rng.exp(rate));
                self.clock
            }
            ArrivalProcess::Diurnal {
                rate,
                amplitude,
                period,
            } => {
                // Lewis–Shedler thinning: candidates at the peak rate,
                // accepted with probability λ(t)/λ_max.
                let peak = rate * (1.0 + amplitude);
                loop {
                    self.clock += SimDuration::from_secs_f64(self.rng.exp(peak));
                    let phase = self.clock.0 as f64 / period.0 as f64;
                    let lambda =
                        rate * (1.0 + amplitude * (2.0 * std::f64::consts::PI * phase).sin());
                    if self.rng.f64() * peak < lambda {
                        return self.clock;
                    }
                }
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => loop {
                let rate = if self.bursting { burst_rate } else { base_rate };
                let candidate = self.clock + SimDuration::from_secs_f64(self.rng.exp(rate));
                if candidate <= self.state_until {
                    self.clock = candidate;
                    return self.clock;
                }
                // The dwell ended first: restart sampling from the state
                // boundary in the other state (the exponential's
                // memorylessness makes the discard exact, not approximate).
                self.clock = self.state_until;
                self.bursting = !self.bursting;
                let dwell = if self.bursting { mean_burst } else { mean_calm };
                self.state_until = self.clock
                    + SimDuration::from_secs_f64(self.rng.exp(1.0 / dwell.as_secs_f64()));
            },
        }
    }
}

impl Workload for OpenLoop {
    fn next_arrival(&mut self) -> Option<(SimTime, SortJob)> {
        if self.remaining == 0 {
            return None;
        }
        let at = self.next_time();
        if let Some(h) = self.horizon {
            if at >= h {
                self.remaining = 0;
                return None;
            }
        }
        self.remaining -= 1;
        let job = self.mix.sample(&mut self.rng);
        Some((at, job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TenantId;

    fn mix() -> JobMix {
        JobMix::of(SortJob::new(TenantId(0), 1 << 12))
    }

    #[test]
    fn trace_workload_replays_sorted_and_stable() {
        let a = SortJob::new(TenantId(0), 1 << 12);
        let b = SortJob::new(TenantId(1), 1 << 12);
        let c = SortJob::new(TenantId(2), 1 << 12);
        let mut w = TraceWorkload::new(vec![
            (SimTime(5), a.clone()),
            (SimTime(1), b.clone()),
            (SimTime(5), c.clone()),
        ]);
        assert_eq!(w.remaining(), 3);
        assert_eq!(w.next_arrival(), Some((SimTime(1), b)));
        // Stable sort: the two t=5 arrivals keep submission order.
        assert_eq!(w.next_arrival(), Some((SimTime(5), a)));
        assert_eq!(w.next_arrival(), Some((SimTime(5), c)));
        assert_eq!(w.next_arrival(), None);
    }

    #[test]
    fn arrivals_are_non_decreasing_for_every_process() {
        let processes = [
            ArrivalProcess::Poisson { rate: 500.0 },
            ArrivalProcess::Diurnal {
                rate: 500.0,
                amplitude: 0.8,
                period: SimDuration::from_millis(20),
            },
            ArrivalProcess::Bursty {
                base_rate: 200.0,
                burst_rate: 2_000.0,
                mean_calm: SimDuration::from_millis(10),
                mean_burst: SimDuration::from_millis(2),
            },
        ];
        for p in processes {
            let arrivals = OpenLoop::new(p, mix(), 300, 9).collect_arrivals();
            assert_eq!(arrivals.len(), 300);
            for w in arrivals.windows(2) {
                assert!(w[0].0 <= w[1].0, "arrivals must be time-ordered");
            }
        }
    }

    #[test]
    fn horizon_truncates_the_stream() {
        let horizon = SimTime(2_000_000);
        let arrivals = OpenLoop::poisson(1_000.0, mix(), 10_000, 3)
            .until(horizon)
            .collect_arrivals();
        assert!(!arrivals.is_empty());
        assert!(arrivals.len() < 10_000);
        assert!(arrivals.iter().all(|&(t, _)| t < horizon));
    }

    #[test]
    fn job_mix_respects_weights_and_freshens_seeds() {
        let m = JobMix::of(SortJob::new(TenantId(0), 1 << 12))
            .and(SortJob::new(TenantId(1), 1 << 14), 3.0);
        let arrivals = OpenLoop::poisson(100.0, m, 4_000, 11).collect_arrivals();
        let heavy = arrivals
            .iter()
            .filter(|(_, j)| j.tenant == TenantId(1))
            .count();
        // Weight 3 of 4 → 75% of draws, ±5 points at n = 4000.
        let share = heavy as f64 / arrivals.len() as f64;
        assert!((0.70..0.80).contains(&share), "weighted share {share}");
        let mut seeds: Vec<u64> = arrivals.iter().map(|(_, j)| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            arrivals.len(),
            "every arrival gets a fresh seed"
        );
    }

    #[test]
    fn mean_rate_blends_mmpp_states_by_dwell() {
        let p = ArrivalProcess::Bursty {
            base_rate: 100.0,
            burst_rate: 1_100.0,
            mean_calm: SimDuration::from_millis(9),
            mean_burst: SimDuration::from_millis(1),
        };
        // 0.9·100 + 0.1·1100 = 200.
        assert!((p.mean_rate() - 200.0).abs() < 1e-9);
        assert!((ArrivalProcess::Poisson { rate: 7.0 }.mean_rate() - 7.0).abs() < 1e-12);
    }
}
