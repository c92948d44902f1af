//! Membership oracle: answering `L*` queries by executing the black-box
//! component.
//!
//! Regular inference views the legacy component as a black box and asks the
//! *Teacher* membership queries (Section 6). Each query resets the
//! component and drives it along a word — the dominant cost of learning,
//! which the benchmarks measure as resets and symbols executed. A query
//! cache avoids re-executing previously asked words (standard practice in
//! LearnLib-style implementations); cached answers are free.

use std::collections::HashMap;

use muml_automata::SignalSet;
use muml_legacy::LegacyComponent;

/// Cost counters of a learning run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Membership queries asked (including cache hits).
    pub membership_queries: u64,
    /// Actual component resets performed.
    pub resets: u64,
    /// Total input symbols driven into the component.
    pub symbols: u64,
    /// Equivalence queries asked.
    pub equivalence_queries: u64,
}

/// A caching membership oracle over a [`LegacyComponent`].
pub struct ComponentOracle<'a> {
    component: &'a mut dyn LegacyComponent,
    cache: HashMap<Vec<SignalSet>, Vec<SignalSet>>,
    /// Cost counters (the equivalence oracle of the learners books its
    /// queries here as well).
    pub stats: LearnStats,
}

impl<'a> ComponentOracle<'a> {
    /// Wraps a component.
    pub fn new(component: &'a mut dyn LegacyComponent) -> Self {
        ComponentOracle {
            component,
            cache: HashMap::new(),
            stats: LearnStats::default(),
        }
    }

    /// The component's input/output interface.
    pub fn interface(&self) -> (SignalSet, SignalSet) {
        self.component.interface()
    }

    /// Executes (or recalls) `word`, returning the full output sequence.
    pub fn query(&mut self, word: &[SignalSet]) -> Vec<SignalSet> {
        self.stats.membership_queries += 1;
        if let Some(hit) = self.cache.get(word) {
            return hit.clone();
        }
        // Prefix reuse: if a cached *extension* exists, its prefix answers
        // this query without touching the component.
        for (w, o) in &self.cache {
            if w.len() > word.len() && w[..word.len()] == *word {
                let ans = o[..word.len()].to_vec();
                self.cache.insert(word.to_vec(), ans.clone());
                return ans;
            }
        }
        self.component.reset();
        self.stats.resets += 1;
        let mut out = Vec::with_capacity(word.len());
        for &a in word {
            out.push(self.component.step(a));
            self.stats.symbols += 1;
        }
        self.cache.insert(word.to_vec(), out.clone());
        out
    }

    /// The outputs for the final `suffix_len` symbols of `word` — the
    /// observation-table entry `T(u, e)`.
    pub fn query_suffix(&mut self, word: &[SignalSet], suffix_len: usize) -> Vec<SignalSet> {
        let out = self.query(word);
        out[out.len() - suffix_len..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_automata::Universe;
    use muml_legacy::MealyBuilder;

    #[test]
    fn query_executes_and_caches() {
        let u = Universe::new();
        let mut c = MealyBuilder::new(&u, "c")
            .input("a")
            .output("x")
            .state("s0")
            .initial("s0")
            .state("s1")
            .rule("s0", ["a"], ["x"], "s1")
            .rule("s1", ["a"], [], "s0")
            .build()
            .unwrap();
        let a = u.signals(["a"]);
        let x = u.signals(["x"]);
        let mut o = ComponentOracle::new(&mut c);
        assert_eq!(o.query(&[a, a]), vec![x, SignalSet::EMPTY]);
        assert_eq!(o.stats.resets, 1);
        assert_eq!(o.stats.symbols, 2);
        // cache hit: no new reset
        assert_eq!(o.query(&[a, a]), vec![x, SignalSet::EMPTY]);
        assert_eq!(o.stats.resets, 1);
        assert_eq!(o.stats.membership_queries, 2);
        // prefix of a cached word: also free
        assert_eq!(o.query(&[a]), vec![x]);
        assert_eq!(o.stats.resets, 1);
    }

    #[test]
    fn query_suffix_takes_tail() {
        let u = Universe::new();
        let mut c = MealyBuilder::new(&u, "c")
            .input("a")
            .output("x")
            .state("s0")
            .initial("s0")
            .rule("s0", ["a"], ["x"], "s0")
            .build()
            .unwrap();
        let a = u.signals(["a"]);
        let x = u.signals(["x"]);
        let mut o = ComponentOracle::new(&mut c);
        assert_eq!(o.query_suffix(&[a, a, a], 1), vec![x]);
        assert_eq!(o.query_suffix(&[a, a], 2), vec![x, x]);
    }
}
