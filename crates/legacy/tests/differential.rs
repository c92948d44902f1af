//! 200-seed differential suite (DESIGN.md §17): the prefix-sharing trace
//! cache and its pooled probe batches must be observationally equivalent to
//! the serial reset-and-replay path. For every seed we generate a random
//! total hidden Mealy machine and a family of prefix-sharing words (some
//! realizable, some diverging), then check that
//!
//! * cached, checkpoint-resumed execution ≡ serial reset-and-replay, and
//! * probe batches on the pool ≡ serial per-offer execution,
//!
//! where ≡ means the verdict and everything the learner consumes are
//! bit-identical; only the driven-step accounting may differ.

use muml_automata::{Label, SignalSet, Universe};
use muml_legacy::{
    execute_with_retry_cached, execute_with_retry_on, probe_offers_pooled, HiddenMealy,
    LegacyComponent, MealyBuilder, PortMap, RetryPolicy, RetryReport, SimClock, TraceCache,
};

const SEEDS: u64 = 200;

/// xorshift64 — deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const STATES: [&str; 3] = ["s0", "s1", "s2"];
const IN_SETS: [&[&str]; 4] = [&[], &["a"], &["b"], &["a", "b"]];
const OUT_SETS: [&[&str]; 4] = [&[], &["x"], &["y"], &["x", "y"]];

fn sig(u: &Universe, names: &[&str]) -> SignalSet {
    names.iter().map(|n| u.signal(n)).collect()
}

/// A random total deterministic machine: exactly one rule per
/// (state, input-set) pair, so every word is defined.
fn build(u: &Universe, seed: u64) -> HiddenMealy {
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut b = MealyBuilder::new(u, "legacy")
        .input("a")
        .input("b")
        .output("x")
        .output("y");
    for s in STATES {
        b = b.state(s);
    }
    b = b.initial("s0");
    for s in STATES {
        for ins in IN_SETS {
            let outs = OUT_SETS[rng.below(4) as usize];
            let next = STATES[rng.below(3) as usize];
            b = b.rule(s, ins.iter().copied(), outs.iter().copied(), next);
        }
    }
    b.build().unwrap()
}

/// A word the machine realizes, computed by driving a scratch instance —
/// except that one label's outputs are sometimes mutated, which may force a
/// mid-word divergence.
fn word(u: &Universe, scratch: &mut HiddenMealy, rng: &mut Rng, len: usize) -> Vec<Label> {
    scratch.reset();
    let mut w = Vec::with_capacity(len);
    for _ in 0..len {
        let ins = sig(u, IN_SETS[rng.below(4) as usize]);
        let out = scratch.step(ins);
        w.push(Label::new(ins, out));
    }
    if rng.below(3) == 0 {
        let t = rng.below(len as u64) as usize;
        let mutated = sig(u, OUT_SETS[rng.below(4) as usize]);
        w[t] = Label::new(w[t].inputs, mutated);
    }
    w
}

/// Everything the learner consumes must agree; only the driven-step
/// accounting may differ between the cached and the serial path.
fn assert_equivalent(cached: &RetryReport, serial: &RetryReport, seed: u64) {
    assert_eq!(cached.verdict, serial.verdict, "seed {seed}");
    match (&cached.outcome, &serial.outcome) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.confirmed, b.confirmed, "seed {seed}");
            assert_eq!(a.divergence, b.divergence, "seed {seed}");
            assert_eq!(a.observation, b.observation, "seed {seed}");
            assert_eq!(a.refusal, b.refusal, "seed {seed}");
            assert_eq!(a.recording, b.recording, "seed {seed}");
            assert_eq!(a.monitor.to_string(), b.monitor.to_string(), "seed {seed}");
        }
        _ => panic!("outcome presence differs (seed {seed})"),
    }
}

#[test]
fn cached_resume_matches_serial_reset_and_replay_across_seeds() {
    for seed in 0..SEEDS {
        let u = Universe::new();
        let mut scratch = build(&u, seed);
        let mut cached_c = build(&u, seed);
        let mut serial_c = build(&u, seed);
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let mut rng = Rng::new(seed.wrapping_mul(7).wrapping_add(3));

        let len = 1 + rng.below(4) as usize;
        let base = word(&u, &mut scratch, &mut rng, len);
        // Increasing prefixes exercise checkpointed resume; the sibling
        // extension forks the trie; the repeated full word is a warm hit.
        let mut words: Vec<Vec<Label>> = (1..=len).map(|k| base[..k].to_vec()).collect();
        let mut sibling = base.clone();
        sibling.push(Label::new(
            sig(&u, IN_SETS[rng.below(4) as usize]),
            sig(&u, OUT_SETS[rng.below(4) as usize]),
        ));
        words.push(sibling);
        words.push(base.clone());

        let mut cache = TraceCache::new(format!("seed{seed}"));
        let mut cached_clock = SimClock::new();
        let mut serial_clock = SimClock::new();
        for w in &words {
            let cached = execute_with_retry_cached(
                &mut cached_c,
                w,
                &u,
                &ports,
                &policy,
                &mut cached_clock,
                &mut cache,
            );
            let serial =
                execute_with_retry_on(&mut serial_c, w, &u, &ports, &policy, &mut serial_clock);
            assert_equivalent(&cached, &serial, seed);
        }
    }
}

#[test]
fn probe_batches_match_serial_per_offer_across_seeds() {
    for seed in 0..SEEDS {
        let u = Universe::new();
        let mut scratch = build(&u, seed);
        let mut batch_c = build(&u, seed);
        let mut serial_c = build(&u, seed);
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let mut rng = Rng::new(seed.wrapping_mul(13).wrapping_add(7));

        let len = 1 + rng.below(3) as usize;
        let prefix = word(&u, &mut scratch, &mut rng, len);
        let offers: Vec<SignalSet> = IN_SETS.iter().map(|s| sig(&u, s)).collect();

        let serial: Vec<RetryReport> = offers
            .iter()
            .map(|&a| {
                let mut w = prefix.clone();
                w.push(Label::new(a, SignalSet::EMPTY));
                execute_with_retry_on(&mut serial_c, &w, &u, &ports, &policy, &mut SimClock::new())
            })
            .collect();

        let mut cache = TraceCache::new(format!("seed{seed}"));
        let mut clock = SimClock::new();
        let cold = probe_offers_pooled(
            &mut batch_c,
            &prefix,
            &offers,
            &u,
            &ports,
            &policy,
            &mut clock,
            &mut cache,
            4,
        );
        assert_eq!(cold.len(), serial.len(), "seed {seed}");
        for (b, s) in cold.iter().zip(&serial) {
            assert_equivalent(b, s, seed);
        }
        // A fully warm repeat must agree too — and without new rig work.
        let before = cache.stats().driven_steps;
        let warm = probe_offers_pooled(
            &mut batch_c,
            &prefix,
            &offers,
            &u,
            &ports,
            &policy,
            &mut clock,
            &mut cache,
            4,
        );
        for (b, s) in warm.iter().zip(&serial) {
            assert_equivalent(b, s, seed);
        }
        assert_eq!(
            cache.stats().driven_steps,
            before,
            "seed {seed}: warm batch must not re-drive the rig"
        );
    }
}
