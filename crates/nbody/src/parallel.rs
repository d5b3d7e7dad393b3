//! Parallel drivers — the native realization of the §4.3.3 transformation.
//!
//! * [`Schedule::StaticStrip`] is the paper's code: thread *i* starts at the
//!   head of the leaf list, skips *i* nodes (FOR2), processes one node, then
//!   skips `threads` nodes (FOR1) — honest pointer chasing, relying on
//!   speculative traversability at the end of the list.
//! * [`Schedule::Dynamic`] is the A1 ablation: self-scheduling from an
//!   atomic counter. Note it must first *flatten the list to an array* —
//!   exactly the restructuring (\[Her90, Mak90\]) the paper's approach
//!   avoids.
//! * [`force_parallel_subtrees`] exploits the independent subtree
//!   computations inside `compute_force` — the paper's caveat (2) /
//!   future-work parallelism (A2 ablation).
//!
//! Forces land in stride-disjoint slots ([`crate::stride`]); the `unsafe`
//! disjointness proof mirrors what the path matrix analysis established.

use crate::force::accumulate_force;
use crate::octree::Octree;
use crate::particle::{ParticleId, ParticleList};
use crate::sim::Simulation;
use crate::stride::disjoint_strides;
use crate::vec3::{Vec3, ZERO};
use std::sync::atomic::{AtomicUsize, Ordering};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
/// How `step_parallel_sched` distributes leaf-list iterations over threads.
pub enum Schedule {
    /// The paper's static strip scheduling.
    StaticStrip,
    /// Self-scheduling via an atomic counter over a flattened index array.
    Dynamic,
}

impl Simulation {
    /// One parallel Barnes–Hut step with the given schedule.
    pub fn step_parallel_sched(&mut self, threads: usize, schedule: Schedule) {
        assert!(threads >= 1);
        let tree = Octree::build(&self.particles);
        self.last_tree_nodes = tree.len();
        self.last_tree_depth = tree.depth();

        match schedule {
            Schedule::StaticStrip => self.forces_static_strip(&tree, threads),
            Schedule::Dynamic => self.forces_dynamic(&tree, threads),
        }
        self.integrate_parallel(threads);
    }

    /// One parallel step with the paper's schedule.
    pub fn step_parallel(&mut self, threads: usize) {
        self.step_parallel_sched(threads, Schedule::StaticStrip);
    }

    /// Run `steps` parallel steps on a persistent pool: threads are spawned
    /// once and synchronize with barriers between the three phases of each
    /// step (sequential tree build by thread 0 — as in the paper, where
    /// `build_tree` stays sequential — then parallel BHL1, then parallel
    /// BHL2). This is the configuration the §4.4 tables measure.
    pub fn run_parallel(&mut self, steps: usize, threads: usize) {
        let threads = threads.max(1);
        if threads == 1 {
            for _ in 0..steps {
                self.step_parallel(1);
            }
            return;
        }
        let n = self.particles.len();
        debug_assert_eq!(self.forces.len(), n);
        let barrier = std::sync::Barrier::new(threads);
        let tree_slot: std::sync::RwLock<Option<Octree>> = std::sync::RwLock::new(None);
        let params = self.params;

        // SAFETY CONTRACT for the raw pointers below: phases are separated
        // by barriers. In the build phase only thread 0 touches the world;
        // in the force phase all threads read particles and write disjoint
        // stride classes of `forces`; in the integrate phase all threads
        // read `forces` and write disjoint stride classes of `particles`.
        struct World(*mut Simulation);
        unsafe impl Sync for World {}
        let world = World(self as *mut Simulation);
        let world = &world;

        std::thread::scope(|s| {
            for t in 0..threads {
                let barrier = &barrier;
                let tree_slot = &tree_slot;
                s.spawn(move || {
                    for _ in 0..steps {
                        if t == 0 {
                            // Exclusive phase: rebuild the tree.
                            // SAFETY: all other threads are blocked on the
                            // barrier below.
                            let sim = unsafe { &mut *world.0 };
                            let tree = Octree::build(&sim.particles);
                            sim.last_tree_nodes = tree.len();
                            sim.last_tree_depth = tree.depth();
                            *tree_slot.write().expect("tree slot") = Some(tree);
                        }
                        barrier.wait();
                        {
                            // Force phase: shared reads, strided force writes.
                            // SAFETY: no &mut exists; this thread writes only
                            // indices ≡ t (mod threads) of `forces`.
                            let sim = unsafe { &*world.0 };
                            let guard = tree_slot.read().expect("tree slot");
                            let tree = guard.as_ref().expect("tree built");
                            let forces_ptr = sim.forces.as_ptr() as *mut Vec3;
                            let mut p = sim.particles.head();
                            let mut pos = 0usize;
                            for _ in 0..t {
                                p = sim.particles.next_of(p);
                                pos += 1;
                            }
                            while let Some(id) = p {
                                debug_assert_eq!(id as usize, pos);
                                let f = accumulate_force(
                                    tree,
                                    &sim.particles,
                                    id,
                                    tree.root,
                                    params.theta,
                                    params.eps,
                                );
                                unsafe { *forces_ptr.add(pos) = f };
                                for _ in 0..threads {
                                    p = sim.particles.next_of(p);
                                }
                                pos += threads;
                            }
                        }
                        barrier.wait();
                        {
                            // Integrate phase: strided particle writes.
                            // SAFETY: this thread writes only particle
                            // indices ≡ t (mod threads); forces are read-only.
                            let sim = unsafe { &*world.0 };
                            let parts_ptr = sim.particles.particles().as_ptr()
                                as *mut crate::particle::Particle;
                            let mut i = t;
                            while i < n {
                                let f = sim.forces[i];
                                unsafe {
                                    let part = &mut *parts_ptr.add(i);
                                    part.vel += f * (params.dt / part.mass);
                                    part.pos += part.vel * params.dt;
                                }
                                i += threads;
                            }
                        }
                        barrier.wait();
                    }
                });
            }
        });
    }

    /// BHL1 under static strip scheduling: each thread walks the leaf list
    /// itself, processing positions ≡ t (mod threads).
    fn forces_static_strip(&mut self, tree: &Octree, threads: usize) {
        let params = self.params;
        let particles = &self.particles;
        let head = particles.head();
        let writers = disjoint_strides(&mut self.forces, threads);
        std::thread::scope(|s| {
            for (t, mut writer) in writers.into_iter().enumerate() {
                s.spawn(move || {
                    // FOR2: skip t nodes ahead (speculative past the end).
                    let mut p = head;
                    let mut pos = 0usize;
                    for _ in 0..t {
                        p = particles.next_of(p);
                        pos += 1;
                    }
                    while let Some(id) = p {
                        debug_assert_eq!(id as usize, pos, "leaf list is in id order");
                        let f = accumulate_force(
                            tree,
                            particles,
                            id,
                            tree.root,
                            params.theta,
                            params.eps,
                        );
                        writer.set(pos, f);
                        // FOR1: skip `threads` nodes ahead.
                        for _ in 0..threads {
                            p = particles.next_of(p);
                        }
                        pos += threads;
                    }
                });
            }
        });
    }

    /// BHL1 under dynamic self-scheduling: flatten the chain, then pop
    /// indices from a shared counter.
    fn forces_dynamic(&mut self, tree: &Octree, threads: usize) {
        let params = self.params;
        let particles = &self.particles;
        // The flattening step the paper's approach makes unnecessary.
        let order: Vec<ParticleId> = particles.iter_chain().collect();
        let counter = AtomicUsize::new(0);
        let mut partials: Vec<Vec<(usize, Vec3)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let order = &order;
                let counter = &counter;
                handles.push(s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let k = counter.fetch_add(1, Ordering::Relaxed);
                        if k >= order.len() {
                            return local;
                        }
                        let id = order[k];
                        let f = accumulate_force(
                            tree,
                            particles,
                            id,
                            tree.root,
                            params.theta,
                            params.eps,
                        );
                        local.push((id as usize, f));
                    }
                }));
            }
            for h in handles {
                partials.push(h.join().expect("force worker"));
            }
        });
        for part in partials {
            for (i, f) in part {
                self.forces[i] = f;
            }
        }
    }

    /// BHL2 in parallel: stride-disjoint updates of the particle array.
    fn integrate_parallel(&mut self, threads: usize) {
        let dt = self.params.dt;
        let forces = &self.forces;
        let writers = disjoint_strides(self.particles.particles_mut(), threads);
        std::thread::scope(|s| {
            for mut w in writers {
                s.spawn(move || {
                    let idxs: Vec<usize> = w.indices().collect();
                    for i in idxs {
                        let f = forces[i];
                        let p = w.get_mut(i);
                        p.vel += f * (dt / p.mass);
                        p.pos += p.vel * dt;
                    }
                });
            }
        });
    }
}

/// Force on one particle with the *subtree* parallelism of compute_force
/// exploited: the recursive calls on the root's children are independent
/// (disjoint subtrees — exactly what the ADDS `uniquely forward along down`
/// declaration proves), so they can run on different threads.
pub fn force_parallel_subtrees(
    tree: &Octree,
    plist: &ParticleList,
    p: ParticleId,
    theta: f64,
    eps: f64,
) -> Vec3 {
    let Some(root) = tree.root else {
        return ZERO;
    };
    let n = tree.node(root);
    if n.body.is_some() {
        return accumulate_force(tree, plist, p, tree.root, theta, eps);
    }
    // Well-separated roots don't recurse; fall back to sequential.
    let body = plist.get(p);
    let dist = (n.com - body.pos).norm() + eps;
    if crate::force::well_separated(n.half_width, dist, theta) {
        return accumulate_force(tree, plist, p, tree.root, theta, eps);
    }
    let mut total = ZERO;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for q in 0..8 {
            let child = n.children[q];
            if child.is_none() {
                continue;
            }
            handles.push(s.spawn(move || accumulate_force(tree, plist, p, child, theta, eps)));
        }
        for h in handles {
            total += h.join().expect("subtree worker");
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::sim::SimParams;

    fn sims(n: usize) -> (Simulation, Simulation) {
        let params = SimParams::default();
        (
            Simulation::new(gen::uniform_cube(n, 17), params),
            Simulation::new(gen::uniform_cube(n, 17), params),
        )
    }

    #[test]
    fn parallel_strip_matches_sequential() {
        let (mut seq, mut par) = sims(100);
        seq.run_sequential(3);
        par.run_parallel(3, 4);
        for (a, b) in seq
            .particles
            .particles()
            .iter()
            .zip(par.particles.particles())
        {
            assert!((a.pos - b.pos).norm() < 1e-12, "{a:?} vs {b:?}");
            assert!((a.vel - b.vel).norm() < 1e-12);
        }
    }

    #[test]
    fn parallel_dynamic_matches_sequential() {
        let (mut seq, mut par) = sims(64);
        seq.run_sequential(2);
        for _ in 0..2 {
            par.step_parallel_sched(4, Schedule::Dynamic);
        }
        for (a, b) in seq
            .particles
            .particles()
            .iter()
            .zip(par.particles.particles())
        {
            assert!((a.pos - b.pos).norm() < 1e-12);
        }
    }

    #[test]
    fn thread_counts_dont_change_results() {
        let params = SimParams::default();
        let mut base = Simulation::new(gen::plummer(50, 5), params);
        base.run_parallel(2, 1);
        for threads in [2, 3, 4, 7, 16] {
            let mut s = Simulation::new(gen::plummer(50, 5), params);
            s.run_parallel(2, threads);
            for (a, b) in base
                .particles
                .particles()
                .iter()
                .zip(s.particles.particles())
            {
                assert!(
                    (a.pos - b.pos).norm() < 1e-12,
                    "threads={threads}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_particles_is_fine() {
        let params = SimParams::default();
        let mut s = Simulation::new(gen::uniform_cube(3, 1), params);
        s.run_parallel(2, 8);
        assert_eq!(s.particles.len(), 3);
    }

    #[test]
    fn subtree_parallel_force_matches_sequential() {
        let plist = gen::plummer(200, 9);
        let tree = Octree::build(&plist);
        for p in [0u32, 7, 99, 199] {
            let seq = accumulate_force(&tree, &plist, p, tree.root, 0.5, 1e-4);
            let par = force_parallel_subtrees(&tree, &plist, p, 0.5, 1e-4);
            assert!(
                (seq - par).norm() < 1e-12,
                "particle {p}: {seq:?} vs {par:?}"
            );
        }
    }

    #[test]
    fn single_particle_subtree_force_is_zero() {
        let plist = gen::uniform_cube(1, 1);
        let tree = Octree::build(&plist);
        assert_eq!(force_parallel_subtrees(&tree, &plist, 0, 0.5, 1e-4), ZERO);
    }
}
