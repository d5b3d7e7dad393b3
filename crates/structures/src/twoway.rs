//! The two-way linked list from the paper's §2.2 introduction:
//!
//! > "A two-way linked list has the property that a traversal in the
//! > forward direction using only the next field never visits the same
//! > node twice (likewise for traversals using only the prev field). This
//! > property … enables the parallelization of traversals along the list."
//!
//! `next` and `prev` are opposite directions of ONE dimension — the
//! next/prev "cycle" is not a real cycle, which is exactly the distinction
//! ADDS lets the analysis make (§3.3: "freed from estimating needless
//! cycles").

/// The ADDS declaration this structure realizes.
pub const ADDS_DECL: &str = "
type TwoWayList [X]
{
    int data;
    TwoWayList *next is uniquely forward along X;
    TwoWayList *prev is backward along X;
};
";

/// Index of a node within the list arena.
pub type NodeId = u32;

#[derive(Clone, Debug)]
/// One cell of the two-way list.
pub struct TwoWayNode<T> {
    /// Payload.
    pub data: T,
    /// Uniquely forward along X.
    pub next: Option<NodeId>,
    /// Backward along X.
    pub prev: Option<NodeId>,
}

#[derive(Clone, Debug, Default)]
/// The §2.2 TwoWayList: forward walks never revisit a node.
pub struct TwoWayList<T> {
    nodes: Vec<TwoWayNode<T>>,
    head: Option<NodeId>,
    tail: Option<NodeId>,
}

impl<T> TwoWayList<T> {
    /// The empty list.
    pub fn new() -> TwoWayList<T> {
        TwoWayList {
            nodes: Vec::new(),
            head: None,
            tail: None,
        }
    }

    /// Build by appending each item at the tail.
    pub fn from_iter_back(items: impl IntoIterator<Item = T>) -> TwoWayList<T> {
        let mut l = TwoWayList::new();
        for x in items {
            l.push_back(x);
        }
        l
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the list has no cells.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The first cell.
    pub fn head(&self) -> Option<NodeId> {
        self.head
    }

    /// The last cell.
    pub fn tail(&self) -> Option<NodeId> {
        self.tail
    }

    /// Append at the tail; returns the new cell.
    pub fn push_back(&mut self, data: T) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(TwoWayNode {
            data,
            next: None,
            prev: self.tail,
        });
        match self.tail {
            Some(t) => self.nodes[t as usize].next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        id
    }

    /// The cell `id`.
    pub fn node(&self, id: NodeId) -> &TwoWayNode<T> {
        &self.nodes[id as usize]
    }

    /// Forward traversal (never visits a node twice — the §2.2 property).
    pub fn iter_forward(&self) -> impl Iterator<Item = &T> {
        let mut cur = self.head;
        let cap = self.nodes.len();
        let mut steps = 0;
        std::iter::from_fn(move || {
            if steps > cap {
                return None;
            }
            let id = cur?;
            steps += 1;
            cur = self.nodes[id as usize].next;
            Some(&self.nodes[id as usize].data)
        })
    }

    /// Backward traversal from the tail along `prev`.
    pub fn iter_backward(&self) -> impl Iterator<Item = &T> {
        let mut cur = self.tail;
        let cap = self.nodes.len();
        let mut steps = 0;
        std::iter::from_fn(move || {
            if steps > cap {
                return None;
            }
            let id = cur?;
            steps += 1;
            cur = self.nodes[id as usize].prev;
            Some(&self.nodes[id as usize].data)
        })
    }

    /// Run-time validation of the declared shape: `prev` is the exact
    /// inverse of `next`, forward is acyclic, incoming links unique.
    pub fn validate_shape(&self) -> Result<(), String> {
        let mut incoming = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(nx) = n.next {
                incoming[nx as usize] += 1;
                if self.nodes[nx as usize].prev != Some(i as NodeId) {
                    return Err(format!("prev is not the inverse of next at node {i}"));
                }
            }
        }
        if incoming.iter().any(|c| *c > 1) {
            return Err("sharing along next".into());
        }
        if let Some(h) = self.head {
            if incoming[h as usize] != 0 {
                return Err("cycle through head".into());
            }
        }
        let forward = self.iter_forward().count();
        let backward = self.iter_backward().count();
        if forward != self.nodes.len() || backward != self.nodes.len() {
            return Err(format!(
                "traversals cover {forward}/{backward} of {} nodes",
                self.nodes.len()
            ));
        }
        Ok(())
    }
}

impl<T: Send + Sync> TwoWayList<T> {
    /// Process all nodes in parallel — legal because the forward traversal
    /// never revisits a node (the §2.2 observation). Static strip schedule,
    /// results in list order.
    pub fn par_map<R: Send>(&self, threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let threads = threads.max(1);
        let mut partials: Vec<Vec<(usize, R)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let f = &f;
                handles.push(s.spawn(move || {
                    let mut local = Vec::new();
                    let mut cur = self.head;
                    let mut pos = 0usize;
                    for _ in 0..t {
                        cur = cur.and_then(|c| self.nodes[c as usize].next);
                        pos += 1;
                    }
                    while let Some(id) = cur {
                        local.push((pos, f(&self.nodes[id as usize].data)));
                        for _ in 0..threads {
                            cur = cur.and_then(|c| self.nodes[c as usize].next);
                        }
                        pos += threads;
                    }
                    local
                }));
            }
            for h in handles {
                partials.push(h.join().expect("worker"));
            }
        });
        let mut out: Vec<Option<R>> = (0..self.len()).map(|_| None).collect();
        for part in partials {
            for (pos, r) in part {
                out[pos] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("covered")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_traversals() {
        let l = TwoWayList::from_iter_back([1, 2, 3, 4]);
        let fwd: Vec<i32> = l.iter_forward().copied().collect();
        let bwd: Vec<i32> = l.iter_backward().copied().collect();
        assert_eq!(fwd, vec![1, 2, 3, 4]);
        assert_eq!(bwd, vec![4, 3, 2, 1]);
        l.validate_shape().unwrap();
    }

    #[test]
    fn empty_and_singleton() {
        let e: TwoWayList<i32> = TwoWayList::new();
        assert!(e.is_empty());
        e.validate_shape().unwrap();
        let s = TwoWayList::from_iter_back([9]);
        assert_eq!(s.head(), s.tail());
        s.validate_shape().unwrap();
    }

    #[test]
    fn par_map_matches_sequential() {
        let l = TwoWayList::from_iter_back(0..97i64);
        let seq: Vec<i64> = l.iter_forward().map(|x| x * 3).collect();
        for threads in [1, 2, 4, 7] {
            assert_eq!(l.par_map(threads, |x| x * 3), seq, "threads={threads}");
        }
    }

    #[test]
    fn adds_decl_distinguishes_next_prev_from_a_cycle() {
        let prog = adds_lang::parse_program(ADDS_DECL).unwrap();
        let env = adds_lang::AddsEnv::build(&prog).unwrap();
        let t = env.get("TwoWayList").unwrap();
        // forward + backward along one dimension is NOT a cycle.
        assert!(t.opposite_pair("next", "prev"));
        assert!(t.is_acyclic_field("next"));
        assert!(t.is_acyclic_field("prev"));
        assert!(t.is_uniquely_forward("next"));
    }

    #[test]
    fn corruption_detected() {
        let mut l = TwoWayList::from_iter_back([1, 2, 3]);
        // Break the prev inverse.
        l.nodes[2].prev = Some(0);
        assert!(l.validate_shape().is_err());
    }
}
