//! The benchmark's input generator. Every scenario and every traffic
//! schedule is a pure function of the workload seed; the program under
//! test only ever sees the generated spec text and requests.

use aarc_spec::{synthetic_spec, SpecFormat, SynthParams};

/// SplitMix64: the benchmark's own generator, so a change to the
/// program's RNG helpers never changes the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seed for the `index`-th item of stream `stream` under `seed`.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let base = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64();
    Rng::new(base ^ index).next_u64()
}

/// Size strata of the synthetic scenarios: layers 3..=8 by widths 2..=5.
pub const STRATA: usize = 24;

/// Relative runtime jitter given to the jittered quarter of scenarios.
pub const JITTER: f64 = 0.05;

/// The shape of the `index`-th synthetic scenario: `(layers, max_width,
/// jittered)`. Sizes cycle through every stratum, so any run of 24
/// consecutive scenarios holds each size once, and a quarter of every
/// cycle (spread over all layer counts and widths) is jittered.
pub fn shape(index: usize) -> (usize, usize, bool) {
    let k = index % STRATA;
    let (l, w) = (k % 6, k / 6);
    (3 + l, 2 + w, (l + w) % 4 == 0)
}

/// The YAML text of the `index`-th synthetic scenario of stream `stream`
/// under `seed`: `aarc_spec::synthetic_spec` at the stratum's size, with
/// runtime jitter (and a jitter seed) on the jittered quarter.
pub fn synthetic_yaml(seed: u64, stream: u64, index: usize, name: &str) -> String {
    let (layers, max_width, jittered) = shape(index);
    let mut spec = synthetic_spec(SynthParams {
        seed: sub_seed(seed, stream, index as u64),
        layers,
        max_width,
        ..SynthParams::default()
    });
    spec.name = name.to_owned();
    if jittered {
        spec.seed = sub_seed(seed, stream ^ 0x5EED, index as u64) | 1;
        if let Some(cluster) = spec.cluster.as_mut() {
            cluster.runtime_jitter = JITTER;
        }
    }
    aarc_spec::to_string(&spec, SpecFormat::Yaml)
}

/// What one open-loop arrival of `serve-open` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// `POST /sessions` for uploaded scenario `scenario` with `method`.
    Start {
        scenario: usize,
        method: &'static str,
    },
    /// `POST /scenarios` of fresh spec `spec`.
    Upload { spec: usize },
    /// `POST /scenarios/validate` of fresh spec `spec`.
    Validate { spec: usize },
}

/// One block of the arrival mix: 100 arrivals, of which 4 uploads, 4
/// validations and 92 session starts (70 AARC, 9 MAFF, 9 random and
/// 4 BO). Each block is shuffled on its own, so every 100 consecutive
/// arrivals hold exactly this mix. A BO session holds the daemon's
/// scheduler for tens of milliseconds per step, and the sessions stepped
/// beside it wait: `search_ms_p90` and `scheduler.step_ms_p99` show it.
const BLOCK: [(&str, usize); 6] = [
    ("upload", 4),
    ("validate", 4),
    ("aarc", 70),
    ("maff", 9),
    ("random", 9),
    ("bo", 4),
];

/// Arrivals per block.
const BLOCK_LEN: usize = 100;

/// An open-loop arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `(due offset in seconds, tenant, arrival)` in due order.
    pub arrivals: Vec<(f64, usize, Arrival)>,
}

/// The seeded open-loop schedule: `count` arrivals at `rate` per second,
/// spread over `tenants` tenants and `scenarios` uploaded scenarios. Each
/// method draws its scenarios from a shuffled deck of all of them, dealt
/// out before it is reshuffled, so every seed spreads each method evenly
/// over the scenarios and seeds differ in order, not in mix.
pub fn serve_schedule(
    seed: u64,
    rate: f64,
    count: usize,
    tenants: usize,
    scenarios: usize,
) -> Schedule {
    let mut rng = Rng::new(seed ^ 0x0A11_0CA7_E5C4_ED01);
    let mut kinds = Vec::with_capacity(count + BLOCK_LEN);
    while kinds.len() < count {
        let mut block: Vec<&str> = BLOCK
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        rng.shuffle(&mut block);
        kinds.extend(block);
    }
    kinds.truncate(count);
    // One deck per kind of the block; only the methods' decks are used.
    let mut decks: Vec<Vec<usize>> = vec![Vec::new(); BLOCK.len()];
    let mut deal = |rng: &mut Rng, method: &str| {
        let deck = &mut decks[BLOCK
            .iter()
            .position(|b| b.0 == method)
            .expect("a block kind")];
        if deck.is_empty() {
            deck.extend(0..scenarios);
            rng.shuffle(deck);
        }
        deck.pop().expect("refilled")
    };
    let (mut uploads, mut validations) = (0, 0);
    let arrivals = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let arrival = match kind {
                "upload" => {
                    uploads += 1;
                    Arrival::Upload { spec: uploads - 1 }
                }
                "validate" => {
                    validations += 1;
                    Arrival::Validate {
                        spec: validations - 1,
                    }
                }
                method => Arrival::Start {
                    scenario: deal(&mut rng, method),
                    method,
                },
            };
            (i as f64 / rate, rng.below(tenants), arrival)
        })
        .collect();
    Schedule { arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_a_pure_function_of_the_seed() {
        for index in [0, 5, 23, 24, 61] {
            let a = synthetic_yaml(7, 1, index, "a");
            assert_eq!(a, synthetic_yaml(7, 1, index, "a"), "index {index}");
            assert_ne!(a, synthetic_yaml(8, 1, index, "a"), "index {index}");
            assert_ne!(a, synthetic_yaml(7, 2, index, "a"), "index {index}");
        }
    }

    #[test]
    fn strata_cover_every_size_and_jitter_a_quarter() {
        let shapes: Vec<_> = (0..STRATA).map(shape).collect();
        for layers in 3..=8 {
            for width in 2..=5 {
                assert!(shapes.iter().any(|&(l, w, _)| l == layers && w == width));
            }
        }
        let jittered: Vec<_> = shapes.iter().filter(|s| s.2).collect();
        assert_eq!(jittered.len(), STRATA / 4);
        for layers in 3..=8 {
            assert!(jittered.iter().any(|s| s.0 == layers), "layers {layers}");
        }
        let text = synthetic_yaml(3, 0, 0, "j");
        let spec = aarc_spec::from_yaml_str(&text).expect("generated yaml parses");
        assert_eq!(
            spec.cluster.expect("exported cluster").runtime_jitter,
            JITTER
        );
    }

    #[test]
    fn schedules_are_a_pure_function_of_the_seed_with_a_fixed_mix() {
        let a = serve_schedule(11, 20.0, 500, 4, 8);
        assert_eq!(a, serve_schedule(11, 20.0, 500, 4, 8));
        assert_ne!(a, serve_schedule(12, 20.0, 500, 4, 8));
        assert_eq!(a.arrivals.len(), 500);
        let count = |f: &dyn Fn(&Arrival) -> bool| a.arrivals.iter().filter(|x| f(&x.2)).count();
        assert_eq!(count(&|x| matches!(x, Arrival::Upload { .. })), 20);
        assert_eq!(count(&|x| matches!(x, Arrival::Validate { .. })), 20);
        assert_eq!(
            count(&|x| matches!(x, Arrival::Start { method: "bo", .. })),
            20
        );
        assert_eq!(BLOCK.iter().map(|b| b.1).sum::<usize>(), BLOCK_LEN);
        assert!(a.arrivals.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a.arrivals.iter().all(|x| x.1 < 4));
        // Each method's starts cover the scenarios evenly.
        for method in ["aarc", "maff", "random", "bo"] {
            let mut per_scenario = [0; 8];
            for x in &a.arrivals {
                if let Arrival::Start {
                    scenario,
                    method: m,
                } = x.2
                {
                    if m == method {
                        per_scenario[scenario] += 1;
                    }
                }
            }
            let (lo, hi) = (per_scenario.iter().min(), per_scenario.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "{method}: {per_scenario:?}");
        }
    }
}
