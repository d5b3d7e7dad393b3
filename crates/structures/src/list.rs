//! The one-way linked list of §3.1.1 — arena-backed, with its ADDS
//! declaration attached and run-time shape validation.

/// The ADDS declaration this structure realizes (Figure 2).
pub const ADDS_DECL: &str = "
type OneWayList [X]
{
    int data;
    OneWayList *next is uniquely forward along X;
};
";

/// Index of a node within the list arena.
pub type NodeId = u32;

#[derive(Clone, Debug)]
/// One list cell.
pub struct ListNode<T> {
    /// Payload.
    pub data: T,
    /// Uniquely-forward link along the X dimension.
    pub next: Option<NodeId>,
}

/// A one-way linked list over an arena. The arena is public enough for the
/// `misuse` module to build Figure 1's pathological shapes from the *same
/// node type* — the paper's point that the type alone does not fix the
/// shape.
#[derive(Clone, Debug, Default)]
pub struct OneWayList<T> {
    pub(crate) nodes: Vec<ListNode<T>>,
    pub(crate) head: Option<NodeId>,
    pub(crate) tail: Option<NodeId>,
}

impl<T> OneWayList<T> {
    /// The empty list.
    pub fn new() -> OneWayList<T> {
        OneWayList {
            nodes: Vec::new(),
            head: None,
            tail: None,
        }
    }

    /// Build by appending each item at the tail.
    pub fn from_iter_back(items: impl IntoIterator<Item = T>) -> OneWayList<T> {
        let mut l = OneWayList::new();
        for x in items {
            l.push_back(x);
        }
        l
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the list has no cells.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The first cell.
    pub fn head(&self) -> Option<NodeId> {
        self.head
    }

    /// Append at the tail; returns the new cell.
    pub fn push_back(&mut self, data: T) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(ListNode { data, next: None });
        match self.tail {
            Some(t) => self.nodes[t as usize].next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        id
    }

    /// Prepend at the head; returns the new cell.
    pub fn push_front(&mut self, data: T) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(ListNode {
            data,
            next: self.head,
        });
        if self.tail.is_none() {
            self.tail = Some(id);
        }
        self.head = Some(id);
        id
    }

    /// The cell `id`.
    pub fn node(&self, id: NodeId) -> &ListNode<T> {
        &self.nodes[id as usize]
    }

    /// Mutable access to cell `id`.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ListNode<T> {
        &mut self.nodes[id as usize]
    }

    /// Follow `next`; `None` in, `None` out (speculative traversability).
    pub fn next_of(&self, id: Option<NodeId>) -> Option<NodeId> {
        id.and_then(|i| self.nodes[i as usize].next)
    }

    /// Iterate data in list order. Guards against cyclic corruption by
    /// stopping after `nodes.len()` steps.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mut cur = self.head;
        let mut steps = 0usize;
        let cap = self.nodes.len();
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

    /// Cell ids in chain order.
    pub fn iter_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.head;
        let mut steps = 0usize;
        let cap = self.nodes.len();
        std::iter::from_fn(move || {
            if steps > cap {
                return None;
            }
            let id = cur?;
            steps += 1;
            cur = self.nodes[id as usize].next;
            Some(id)
        })
    }

    /// Run-time validation of the declared shape (§2.2): acyclic along
    /// `next`, every node has at most one incoming `next` link, and the
    /// head has none.
    pub fn validate_shape(&self) -> Result<(), String> {
        let mut incoming = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            if let Some(nx) = n.next {
                incoming[nx as usize] += 1;
            }
        }
        for (i, c) in incoming.iter().enumerate() {
            if *c > 1 {
                return Err(format!("node {i} has {c} incoming next links (sharing)"));
            }
        }
        if let Some(h) = self.head {
            if incoming[h as usize] != 0 {
                return Err("head has an incoming next link (cycle)".into());
            }
        }
        // Floyd cycle detection along the chain.
        let mut slow = self.head;
        let mut fast = self.head;
        loop {
            fast = self.next_of(self.next_of(fast));
            slow = self.next_of(slow);
            match (slow, fast) {
                (Some(a), Some(b)) if a == b => return Err("cycle detected along next".into()),
                (_, None) => return Ok(()),
                _ => {}
            }
        }
    }
}

impl<T: Send + Sync> OneWayList<T> {
    /// Process every node in parallel with static strip scheduling — the
    /// §4.3.3 transformation applied to a generic list: worker *t* skips
    /// `t` links from the head, processes a node, then skips `threads`
    /// links (speculatively traversing past the end). `f` must be
    /// independent per node — the condition the analysis verifies.
    /// Results come back in list order.
    pub fn par_map<R: Send>(&self, threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let threads = threads.max(1);
        let head = self.head;
        let mut partials: Vec<Vec<(usize, R)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let f = &f;
                handles.push(s.spawn(move || {
                    let mut local = Vec::new();
                    // FOR2: skip t links ahead.
                    let mut cur = head;
                    let mut pos = 0usize;
                    for _ in 0..t {
                        cur = self.next_of(cur);
                        pos += 1;
                    }
                    while let Some(id) = cur {
                        local.push((pos, f(&self.nodes[id as usize].data)));
                        // FOR1: skip `threads` links ahead (speculative).
                        for _ in 0..threads {
                            cur = self.next_of(cur);
                        }
                        pos += threads;
                    }
                    local
                }));
            }
            for h in handles {
                partials.push(h.join().expect("par_map worker"));
            }
        });
        let n = self.len();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for part in partials {
            for (pos, r) in part {
                out[pos] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("position covered"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_back_preserves_order() {
        let l = OneWayList::from_iter_back([1, 2, 3, 4]);
        let v: Vec<i32> = l.iter().copied().collect();
        assert_eq!(v, vec![1, 2, 3, 4]);
        assert_eq!(l.len(), 4);
        l.validate_shape().unwrap();
    }

    #[test]
    fn push_front_prepends() {
        let mut l = OneWayList::new();
        l.push_front(2);
        l.push_front(1);
        l.push_back(3);
        let v: Vec<i32> = l.iter().copied().collect();
        assert_eq!(v, vec![1, 2, 3]);
        l.validate_shape().unwrap();
    }

    #[test]
    fn empty_list_is_valid() {
        let l: OneWayList<i32> = OneWayList::new();
        assert!(l.is_empty());
        l.validate_shape().unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let mut l = OneWayList::from_iter_back([1, 2, 3]);
        // Close a cycle: 3 -> 1.
        l.node_mut(2).next = Some(0);
        assert!(l.validate_shape().is_err());
    }

    #[test]
    fn sharing_is_detected() {
        let mut l = OneWayList::from_iter_back([1, 2, 3]);
        // Tournament-style sharing: both 1 and 2 point at 3.
        l.node_mut(0).next = Some(2);
        let err = l.validate_shape().unwrap_err();
        assert!(err.contains("incoming"), "{err}");
    }

    #[test]
    fn par_map_matches_sequential() {
        let l = OneWayList::from_iter_back(0..103i64);
        let seq: Vec<i64> = l.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let par = l.par_map(threads, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn adds_decl_parses_and_is_well_formed() {
        let prog = adds_lang::parse_program(ADDS_DECL).unwrap();
        let env = adds_lang::AddsEnv::build(&prog).unwrap();
        let t = env.get("OneWayList").unwrap();
        assert!(t.is_uniquely_forward("next"));
    }

    #[test]
    fn speculative_next_of() {
        let l = OneWayList::from_iter_back([1]);
        assert_eq!(l.next_of(None), None);
        assert_eq!(l.next_of(Some(0)), None);
    }
}
