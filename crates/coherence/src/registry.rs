//! Transition coverage registry — the data behind Table 1.
//!
//! Controllers record `(state, event) → next_state` tuples as they execute.
//! The random tester drives the protocols through their corner cases and
//! then reads distinct state / event / transition counts per controller,
//! reproducing the paper's complexity comparison (with our own factoring;
//! the paper concedes the counts "depend somewhat on how one chooses to
//! express a protocol").
//!
//! Recording is off by default (zero cost in performance runs) and enabled
//! by the tester and the `table1` experiment.

use std::collections::BTreeMap;

/// A recorded transition.
pub type Transition = (&'static str, &'static str, &'static str);

/// Per-controller transition log.
#[derive(Debug, Clone, Default)]
pub struct TransitionLog {
    enabled: bool,
    transitions: BTreeMap<Transition, u64>,
}

impl TransitionLog {
    /// Creates a disabled (no-op) log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an enabled log.
    pub fn enabled() -> Self {
        Self::recording(true)
    }

    /// Creates a log that records when `on` — a controller's coverage
    /// flag.
    pub(crate) fn recording(on: bool) -> Self {
        TransitionLog {
            enabled: on,
            transitions: BTreeMap::new(),
        }
    }

    /// True when this log records. Controllers compute their transition
    /// labels only then, so a disabled log costs one branch per handler.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one `(state, event) → next_state` occurrence. No-op when
    /// disabled.
    pub fn record(&mut self, state: &'static str, event: &'static str, next: &'static str) {
        if self.enabled {
            *self.transitions.entry((state, event, next)).or_insert(0) += 1;
        }
    }

    /// Distinct states observed (as source or target of any transition).
    pub fn state_count(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for (s, _, n) in self.transitions.keys() {
            set.insert(*s);
            set.insert(*n);
        }
        set.len()
    }

    /// Distinct events observed.
    pub fn event_count(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for (_, e, _) in self.transitions.keys() {
            set.insert(*e);
        }
        set.len()
    }

    /// Distinct `(state, event)` transitions observed (the paper counts a
    /// transition per state/event pair that does something).
    pub fn transition_count(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for (s, e, _) in self.transitions.keys() {
            set.insert((*s, *e));
        }
        set.len()
    }

    /// Iterates all recorded transitions with their hit counts.
    pub fn iter(&self) -> impl Iterator<Item = (Transition, u64)> + '_ {
        self.transitions.iter().map(|(&t, &c)| (t, c))
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: &TransitionLog) {
        if !other.transitions.is_empty() {
            self.enabled = true;
        }
        for (&t, &c) in &other.transitions {
            *self.transitions.entry(t).or_insert(0) += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TransitionLog::new();
        assert!(!log.is_enabled());
        log.record("I", "Load", "IS_AD");
        assert_eq!(log.transition_count(), 0);
    }

    #[test]
    fn counts_distinct_states_events_transitions() {
        let mut log = TransitionLog::enabled();
        log.record("I", "Load", "IS_AD");
        log.record("I", "Load", "IS_AD"); // repeat: still one transition
        log.record("I", "Store", "IM_AD");
        log.record("IS_AD", "OwnReq", "IS_D");
        assert_eq!(log.transition_count(), 3);
        assert_eq!(log.event_count(), 3);
        // States: I, IS_AD, IM_AD, IS_D.
        assert_eq!(log.state_count(), 4);
        let hits: u64 = log.iter().map(|(_, c)| c).sum();
        assert_eq!(hits, 4);
    }

    #[test]
    fn merge_combines() {
        let mut a = TransitionLog::enabled();
        a.record("I", "Load", "IS_AD");
        let mut b = TransitionLog::enabled();
        b.record("I", "Load", "IS_AD");
        b.record("M", "ForeignGetS", "O");
        a.merge(&b);
        assert_eq!(a.transition_count(), 2);
        assert_eq!(a.iter().map(|(_, c)| c).sum::<u64>(), 3);
    }
}
