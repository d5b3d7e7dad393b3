//! Disjoint strided mutable views of a slice.
//!
//! The strip-mined loop of §4.3.3 has PE *i* write to list positions
//! `i, i+PEs, i+2·PEs, …` — provably disjoint index sets. This module is the
//! Rust embodiment of that proof: [`disjoint_strides`] splits one `&mut [T]`
//! into `k` writers, writer `i` being allowed exactly the indices
//! `≡ i (mod k)`. The `unsafe` inside is justified by the same invariant the
//! ADDS analysis establishes for the C loop: distinct residues ⇒ distinct
//! elements.

use std::marker::PhantomData;

/// A writer that may access only indices congruent to `offset` mod `stride`.
pub struct StrideWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    offset: usize,
    stride: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: each writer touches a disjoint set of elements (distinct residues
// mod `stride`), so sending writers to different threads cannot race.
unsafe impl<'a, T: Send> Send for StrideWriter<'a, T> {}

impl<'a, T> StrideWriter<'a, T> {
    /// The global indices this writer owns.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (self.offset..self.len).step_by(self.stride)
    }

    /// Mutable access to global index `i`. Panics if `i` is out of range or
    /// not owned by this writer — the panic is the runtime analogue of the
    /// compile-time disjointness proof.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        assert_eq!(
            i % self.stride,
            self.offset,
            "index {i} not owned by stride writer {} (mod {})",
            self.offset,
            self.stride
        );
        // SAFETY: bounds checked above; ownership of residue class
        // guarantees no other writer aliases this element; lifetime tied to
        // the original borrow by `_marker`.
        unsafe { &mut *self.ptr.add(i) }
    }

    /// Write to global index `i`.
    pub fn set(&mut self, i: usize, value: T) {
        *self.get_mut(i) = value;
    }

    /// Does this writer own global index `i`?
    pub fn owns(&self, i: usize) -> bool {
        i < self.len && i % self.stride == self.offset
    }
}

/// Split `slice` into `k ≥ 1` stride-disjoint writers.
pub fn disjoint_strides<T>(slice: &mut [T], k: usize) -> Vec<StrideWriter<'_, T>> {
    assert!(k >= 1, "need at least one stride class");
    let ptr = slice.as_mut_ptr();
    let len = slice.len();
    (0..k)
        .map(|offset| StrideWriter {
            ptr,
            len,
            offset,
            stride: k,
            _marker: PhantomData,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_cover_all_indices_disjointly() {
        let mut data = vec![0usize; 17];
        let writers = disjoint_strides(&mut data, 4);
        let mut seen = vec![0usize; 17];
        for w in &writers {
            for i in w.indices() {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|c| *c == 1), "{seen:?}");
    }

    #[test]
    fn writes_land_in_the_right_slots() {
        let mut data = vec![0usize; 10];
        let mut writers = disjoint_strides(&mut data, 3);
        for w in writers.iter_mut() {
            let idxs: Vec<usize> = w.indices().collect();
            for i in idxs {
                w.set(i, i * 10);
            }
        }
        drop(writers);
        assert_eq!(data, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_index_panics() {
        let mut data = vec![0u8; 8];
        let mut writers = disjoint_strides(&mut data, 2);
        writers[0].set(1, 9); // index 1 belongs to writer 1
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut data = vec![0u8; 4];
        let mut writers = disjoint_strides(&mut data, 2);
        writers[0].set(8, 1);
    }

    #[test]
    fn parallel_writes_are_race_free() {
        let mut data = vec![0usize; 1000];
        let writers = disjoint_strides(&mut data, 8);
        std::thread::scope(|s| {
            for mut w in writers {
                s.spawn(move || {
                    let idxs: Vec<usize> = w.indices().collect();
                    for i in idxs {
                        w.set(i, i + 1);
                    }
                });
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i + 1);
        }
    }

    #[test]
    fn single_stride_owns_everything() {
        let mut data = vec![0u8; 5];
        let mut w = disjoint_strides(&mut data, 1);
        assert_eq!(w[0].indices().count(), 5);
        for i in 0..5 {
            assert!(w[0].owns(i));
            w[0].set(i, i as u8);
        }
    }
}
