//! Host-side batch executor: runs an acyclic task graph over topological
//! wavefronts, with the tasks inside one wavefront executed in parallel
//! on the rayon pool.
//!
//! This is the *functional* counterpart of the timeline simulator: the
//! same DAG shape that `sim` prices on the device model is executed here
//! on real ciphertexts. Each task is a closure from its dependencies'
//! outputs to its own output; because a wavefront only contains tasks
//! whose dependencies completed in earlier wavefronts, the parallel run
//! computes exactly the same values as the serial run — bit-identical,
//! which the workspace tests assert on randomized CKKS batches.

use rayon::prelude::*;

/// A task's closure: receives its dependencies' outputs in the order the
/// dependencies were declared.
type TaskFn<'a, T> = Box<dyn Fn(&[&T]) -> T + Send + Sync + 'a>;

/// An acyclic graph of host tasks producing values of type `T`.
pub struct TaskGraph<'a, T: Send + Sync> {
    tasks: Vec<TaskFn<'a, T>>,
    deps: Vec<Vec<usize>>,
}

impl<'a, T: Send + Sync> Default for TaskGraph<'a, T> {
    fn default() -> Self {
        Self {
            tasks: Vec::new(),
            deps: Vec::new(),
        }
    }
}

impl<'a, T: Send + Sync> TaskGraph<'a, T> {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True iff the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Appends a task depending on the already-pushed tasks `deps` (the
    /// closure receives their outputs in that order). Returns the new
    /// task's index.
    ///
    /// # Panics
    ///
    /// Panics if a dependency index does not refer to an existing task —
    /// dependencies always point backwards, which keeps the graph acyclic
    /// by construction.
    pub fn push(&mut self, deps: &[usize], f: impl Fn(&[&T]) -> T + Send + Sync + 'a) -> usize {
        for &d in deps {
            assert!(d < self.tasks.len(), "dependency {d} not yet defined");
        }
        self.tasks.push(Box::new(f));
        self.deps.push(deps.to_vec());
        self.tasks.len() - 1
    }

    /// Groups the tasks into topological wavefronts: wavefront `k` holds
    /// every task whose longest dependency chain has length `k`. All
    /// tasks of one wavefront are mutually independent.
    pub fn wavefronts(&self) -> Vec<Vec<usize>> {
        let mut depth = vec![0usize; self.tasks.len()];
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.tasks.len() {
            let d = self.deps[i]
                .iter()
                .map(|&p| depth[p] + 1)
                .max()
                .unwrap_or(0);
            depth[i] = d;
            if waves.len() <= d {
                waves.resize_with(d + 1, Vec::new);
            }
            waves[d].push(i);
        }
        waves
    }

    /// Runs every task in index order on the current thread.
    pub fn run_serial(&self) -> Vec<T> {
        let mut out: Vec<T> = Vec::with_capacity(self.tasks.len());
        for (i, task) in self.tasks.iter().enumerate() {
            let inputs: Vec<&T> = self.deps[i].iter().map(|&p| &out[p]).collect();
            out.push(task(&inputs));
        }
        out
    }

    /// Runs the graph wavefront by wavefront, with the tasks inside each
    /// wavefront executed on the rayon pool. Produces the same outputs as
    /// [`Self::run_serial`] whenever the task closures are deterministic
    /// pure functions of their inputs.
    pub fn run_parallel(&self) -> Vec<T> {
        let mut slots: Vec<Option<T>> = (0..self.tasks.len()).map(|_| None).collect();
        for wave in self.wavefronts() {
            let produced: Vec<(usize, T)> = wave
                .par_iter()
                .map(|&i| {
                    let inputs: Vec<&T> = self.deps[i]
                        .iter()
                        .map(|&p| slots[p].as_ref().expect("dependency in earlier wavefront"))
                        .collect();
                    (i, self.tasks[i](&inputs))
                })
                .collect();
            for (i, v) in produced {
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|v| v.expect("every task ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diamond: 0 -> {1, 2} -> 3.
    fn diamond() -> TaskGraph<'static, u64> {
        let mut g = TaskGraph::new();
        let a = g.push(&[], |_| 5u64);
        let b = g.push(&[a], |x| x[0] * 2);
        let c = g.push(&[a], |x| x[0] + 100);
        g.push(&[b, c], |x| x[0] + x[1]);
        g
    }

    #[test]
    fn serial_matches_parallel() {
        let g = diamond();
        assert_eq!(g.run_serial(), g.run_parallel());
        assert_eq!(g.run_serial(), vec![5, 10, 105, 115]);
    }

    #[test]
    fn wavefronts_by_depth() {
        let g = diamond();
        assert_eq!(g.wavefronts(), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn independent_tasks_share_a_wavefront() {
        let mut g = TaskGraph::new();
        for i in 0..8u64 {
            g.push(&[], move |_| i * i);
        }
        assert_eq!(g.wavefronts().len(), 1);
        assert_eq!(
            g.run_parallel(),
            (0..8u64).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new();
        g.push(&[3], |_| 0u64);
    }

    #[test]
    fn deep_chain() {
        let mut g = TaskGraph::new();
        let mut prev = g.push(&[], |_| 1u64);
        for _ in 0..50 {
            prev = g.push(&[prev], |x| x[0] + 1);
        }
        let out = g.run_parallel();
        assert_eq!(out[prev], 51);
        assert_eq!(g.wavefronts().len(), 51);
    }
}
