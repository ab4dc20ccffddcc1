//! Seeded workload inputs: the random stream, Zipf popularity, the query
//! mix and the open-loop due-time schedule. The program under test only
//! ever sees what these produce; the same seed produces the same inputs.

/// SplitMix64: a tiny, well-mixed generator. The benchmark carries its
/// own so that its inputs do not change when the program's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, split by `stream` so that threads and phases
    /// draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n`, sampled by inverting the cumulative
/// distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What one query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Hot-set name by index; answered NOERROR with the zone's A record.
    Hot(u32),
    /// A water-torture label that never repeats (the query's sequence
    /// number makes it unique) under the leaf zone `zone`; answered
    /// NXDOMAIN.
    Torture { seq: u64, zone: u32 },
}

/// The query mix of one workload: Zipf-popular hot names, plus an
/// optional share of never-repeating torture names.
#[derive(Debug, Clone)]
pub struct Mix {
    zipf: Zipf,
    /// Popularity rank → hot-set index: which names are popular depends
    /// on the seed.
    rank_to_hot: Vec<u32>,
    torture_share: f64,
    leaf_zones: u32,
}

impl Mix {
    pub fn new(seed: u64, hot: usize, zipf_s: f64, torture_share: f64, leaf_zones: u32) -> Mix {
        let mut rng = Rng::new(seed, 0x5EED);
        let mut rank_to_hot: Vec<u32> = (0..hot as u32).collect();
        for i in (1..rank_to_hot.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            rank_to_hot.swap(i, j);
        }
        Mix {
            zipf: Zipf::new(hot, zipf_s),
            rank_to_hot,
            torture_share,
            leaf_zones,
        }
    }

    /// The query with sequence number `seq`, drawn from `rng`.
    pub fn draw(&self, rng: &mut Rng, seq: u64) -> Choice {
        if self.torture_share > 0.0 && rng.next_f64() < self.torture_share {
            let zone = (rng.next_u64() % u64::from(self.leaf_zones)) as u32;
            return Choice::Torture { seq, zone };
        }
        Choice::Hot(self.rank_to_hot[self.zipf.sample(rng)])
    }
}

/// Poisson arrival times for an open loop: `rate` queries per second
/// over `secs` seconds, as nanosecond offsets from the start, ascending.
/// Independent users arrive this way; the schedule never depends on how
/// fast the system answers.
pub fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0xD0E);
    let horizon = secs * 1e9;
    let mean_gap = 1e9 / rate;
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * secs * 1.1) as usize);
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -mean_gap * (1.0 - rng.next_f64()).ln();
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000)
            .map(|_| r.next_f64())
            .all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::new(3, 0);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[999]);
        assert!(counts.iter().all(|&c| c < 100_000));
    }

    #[test]
    fn mix_share_and_uniqueness() {
        let mix = Mix::new(5, 4096, 0.9, 0.1, 16);
        let mut rng = Rng::new(5, 9);
        let draws: Vec<Choice> = (0..20_000).map(|i| mix.draw(&mut rng, i)).collect();
        let torture = draws
            .iter()
            .filter(|c| matches!(c, Choice::Torture { .. }))
            .count();
        assert!((1_700..2_300).contains(&torture), "{torture} torture draws");
        let hot_only = Mix::new(5, 4096, 0.9, 0.0, 16);
        assert!((0..1000).all(|i| matches!(hot_only.draw(&mut rng, i), Choice::Hot(h) if h < 4096)));
    }

    #[test]
    fn schedule_is_seeded_sorted_and_at_rate() {
        let a = schedule(11, 20_000.0, 2.0);
        assert_eq!(a, schedule(11, 20_000.0, 2.0));
        assert_ne!(a, schedule(12, 20_000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // 40 000 expected arrivals; Poisson sd is 200.
        assert!((39_000..41_000).contains(&a.len()), "{} arrivals", a.len());
    }
}
