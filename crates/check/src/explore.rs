//! Bounded-preemption DFS exploration plus seeded random sampling.
//!
//! The explorer repeatedly runs a scenario under scripted schedules. After
//! each passing execution it extends its decision tree with the trace's
//! newly-discovered suffix, then backtracks to the deepest decision with an
//! untried alternative whose cost fits the preemption bound. Once the bounded
//! tree is exhausted (or the execution cap is hit), a seeded random phase
//! samples schedules beyond the bound.

use crate::sched::{run_execution, Decision, Scenario};
use smc_util::rng::Pcg32;

/// Picks the next thread to run at a switch point.
///
/// Implementations must return a member of `enabled` (which is never empty).
pub trait Chooser {
    /// `enabled` — threads eligible to run; `current` — the token holder;
    /// `current_enabled` — whether continuing `current` is possible (picking
    /// anything else then counts as a preemption).
    fn choose(&mut self, enabled: &[usize], current: usize, current_enabled: bool) -> usize;
}

/// The canonical "no preemption" choice: keep running `current` if possible,
/// otherwise fall to the lowest-id enabled thread.
fn default_choice(enabled: &[usize], current: usize, current_enabled: bool) -> usize {
    if current_enabled && enabled.contains(&current) {
        current
    } else {
        enabled[0]
    }
}

/// Replays a fixed schedule prefix, then continues with default choices.
/// Scripted entries that are not enabled fall back to the default choice —
/// permissive, so slightly-divergent replays still terminate.
struct ScriptedChooser {
    script: Vec<usize>,
    pos: usize,
}

impl Chooser for ScriptedChooser {
    fn choose(&mut self, enabled: &[usize], current: usize, current_enabled: bool) -> usize {
        let pick = self.script.get(self.pos).copied();
        self.pos += 1;
        match pick {
            Some(t) if enabled.contains(&t) => t,
            _ => default_choice(enabled, current, current_enabled),
        }
    }
}

/// Seeded random chooser for the beyond-bound sampling phase. Biased towards
/// continuing the current thread so schedules stay long enough to make
/// progress while still preempting often.
struct RandomChooser {
    rng: Pcg32,
}

impl Chooser for RandomChooser {
    fn choose(&mut self, enabled: &[usize], current: usize, current_enabled: bool) -> usize {
        if current_enabled && enabled.contains(&current) && self.rng.gen_bool(0.7) {
            return current;
        }
        enabled[self.rng.gen_range(0..enabled.len())]
    }
}

/// A replayable schedule: the sequence of threads chosen at successive switch
/// points. Printable as a dot-separated seed string (`0.1.1.0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule(pub Vec<usize>);

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for t in &self.0 {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

impl std::str::FromStr for Schedule {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Schedule, Self::Err> {
        if s.is_empty() {
            return Ok(Schedule(Vec::new()));
        }
        s.split('.')
            .map(str::parse)
            .collect::<Result<Vec<usize>, _>>()
            .map(Schedule)
    }
}

/// A property violation found by the checker: the failure message plus the
/// schedule that triggers it deterministically.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The panic/assertion message from the failing execution.
    pub message: String,
    /// The full schedule of the failing execution — feed to
    /// [`Checker::replay`] to reproduce.
    pub schedule: Schedule,
    /// Executions run before the violation was found.
    pub executions: usize,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.message)?;
        writeln!(f, "found after {} execution(s)", self.executions)?;
        write!(f, "replayable schedule seed: {}", self.schedule)
    }
}

/// Exploration statistics for a completed (violation-free) check.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Total executions run (DFS + random phases).
    pub executions: usize,
    /// Whether the bounded DFS tree was fully exhausted (as opposed to the
    /// execution cap cutting it short).
    pub exhausted: bool,
    /// Deepest trace observed, in decisions.
    pub max_depth: usize,
}

/// One node of the DFS decision tree, mirroring a recorded [`Decision`].
struct Node {
    /// Alternatives in exploration order: the originally-chosen thread first,
    /// then the remaining enabled threads.
    alternatives: Vec<usize>,
    /// `costs_preemption[i]` — whether picking `alternatives[i]` at this
    /// point preempts a runnable current thread.
    costs_preemption: Vec<bool>,
    /// Index (into `alternatives`) taken on the path currently in the tree.
    taken: usize,
    /// Next alternative index to try when backtracking through this node.
    next_alt: usize,
    /// Preemptions spent by the path *before* this node.
    preemptions_before: usize,
}

impl Node {
    fn from_decision(d: &Decision, preemptions_before: usize) -> Node {
        let mut alternatives = vec![d.chosen];
        let mut costs_preemption = vec![d.current_enabled && d.chosen != d.current];
        for &t in &d.enabled {
            if t != d.chosen {
                alternatives.push(t);
                costs_preemption.push(d.current_enabled && t != d.current);
            }
        }
        Node {
            alternatives,
            costs_preemption,
            taken: 0,
            next_alt: 1,
            preemptions_before,
        }
    }

    fn cost_of_taken(&self) -> usize {
        usize::from(self.costs_preemption[self.taken])
    }
}

/// The bounded model checker. Construct with [`Checker::new`], tweak the
/// public knobs, then call [`Checker::check`] with a scenario factory.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Maximum preemptions per schedule explored exhaustively (CHESS-style).
    pub preemption_bound: usize,
    /// Per-execution step budget; exceeding it aborts the execution with a
    /// "step budget exceeded" violation (livelock detector).
    pub max_steps: usize,
    /// Cap on DFS executions (the bounded tree can be large for chatty
    /// scenarios); the random phase still runs afterwards.
    pub max_executions: usize,
    /// Number of seeded random executions beyond the bound.
    pub random_iterations: usize,
    /// Base seed for the random phase (iteration `i` uses `seed + i`).
    pub seed: u64,
}

impl Default for Checker {
    fn default() -> Checker {
        Checker {
            preemption_bound: 2,
            max_steps: 20_000,
            max_executions: 100_000,
            random_iterations: 200,
            seed: 0xC0FFEE,
        }
    }
}

impl Checker {
    /// A checker with the default budget (preemption bound 2, 20k steps,
    /// 100k DFS executions, 200 random samples).
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Explores `make`'s scenario. Returns `Ok(stats)` if no schedule within
    /// budget violates the oracle, or `Err(violation)` with a replayable
    /// schedule on the first failure.
    ///
    /// `make` is called once per execution and must produce a fresh,
    /// self-contained scenario (fresh shared state and shadow state).
    pub fn check(&self, make: impl Fn() -> Scenario) -> Result<ExploreStats, Box<Violation>> {
        crate::install_hook();
        let mut stats = ExploreStats::default();
        let mut nodes: Vec<Node> = Vec::new();
        let mut prefix: Vec<usize> = Vec::new();
        loop {
            if stats.executions >= self.max_executions {
                break;
            }
            let scenario = make();
            let outcome = run_execution(
                scenario.threads,
                scenario.finale,
                Box::new(ScriptedChooser {
                    script: prefix.clone(),
                    pos: 0,
                }),
                self.max_steps,
            );
            stats.executions += 1;
            stats.max_depth = stats.max_depth.max(outcome.trace.len());
            if let Some(message) = outcome.failure {
                return Err(Box::new(Violation {
                    message,
                    schedule: Schedule(outcome.trace.iter().map(|d| d.chosen).collect()),
                    executions: stats.executions,
                }));
            }
            // Grow the tree with the suffix this execution discovered.
            let mut preemptions = nodes.iter().map(Node::cost_of_taken).sum::<usize>();
            for d in &outcome.trace[nodes.len().min(outcome.trace.len())..] {
                let node = Node::from_decision(d, preemptions);
                preemptions += node.cost_of_taken();
                nodes.push(node);
            }
            // Backtrack: deepest node with an affordable untried alternative.
            if !self.advance(&mut nodes, &mut prefix) {
                stats.exhausted = true;
                break;
            }
        }
        // Random sampling beyond the bound.
        for i in 0..self.random_iterations {
            let scenario = make();
            let outcome = run_execution(
                scenario.threads,
                scenario.finale,
                Box::new(RandomChooser {
                    rng: Pcg32::seed_from_u64(self.seed.wrapping_add(i as u64)),
                }),
                self.max_steps,
            );
            stats.executions += 1;
            stats.max_depth = stats.max_depth.max(outcome.trace.len());
            if let Some(message) = outcome.failure {
                return Err(Box::new(Violation {
                    message,
                    schedule: Schedule(outcome.trace.iter().map(|d| d.chosen).collect()),
                    executions: stats.executions,
                }));
            }
        }
        Ok(stats)
    }

    /// Picks the next DFS path. Returns `false` when the bounded tree is
    /// exhausted. On success, `nodes` is truncated at the branch point and
    /// `prefix` holds the scripted schedule for the next execution.
    fn advance(&self, nodes: &mut Vec<Node>, prefix: &mut Vec<usize>) -> bool {
        while let Some(last) = nodes.last_mut() {
            let budget = self.preemption_bound;
            let mut advanced = false;
            while last.next_alt < last.alternatives.len() {
                let alt = last.next_alt;
                last.next_alt += 1;
                let cost = usize::from(last.costs_preemption[alt]);
                if last.preemptions_before + cost <= budget {
                    last.taken = alt;
                    advanced = true;
                    break;
                }
            }
            if advanced {
                prefix.clear();
                prefix.extend(nodes.iter().map(|n| n.alternatives[n.taken]));
                return true;
            }
            nodes.pop();
        }
        false
    }

    /// Replays a specific schedule once (no exploration). Returns the failure
    /// message if the oracle fires, `None` if the execution passes — replay
    /// of a schedule reported by [`Checker::check`] must reproduce its
    /// violation deterministically.
    pub fn replay(&self, schedule: &Schedule, make: impl Fn() -> Scenario) -> Option<String> {
        crate::install_hook();
        let scenario = make();
        let outcome = run_execution(
            scenario.threads,
            scenario.finale,
            Box::new(ScriptedChooser {
                script: schedule.0.clone(),
                pos: 0,
            }),
            self.max_steps,
        );
        outcome.failure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_roundtrips_through_display() {
        let s = Schedule(vec![0, 1, 1, 2, 0]);
        let parsed: Schedule = s.to_string().parse().unwrap();
        assert_eq!(parsed, s);
        let empty: Schedule = "".parse().unwrap();
        assert_eq!(empty, Schedule(vec![]));
    }

    #[test]
    fn default_choice_prefers_current() {
        assert_eq!(default_choice(&[0, 1, 2], 1, true), 1);
        assert_eq!(default_choice(&[0, 2], 1, false), 0);
    }
}
