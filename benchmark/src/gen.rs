//! Seeded request generators.
//!
//! Every stream is a pure function of its seed and holds a *target edge
//! count*: `dynfo_graph::generate::churn_stream` drifts towards a
//! saturated graph and scans its edge list on every step, so a run that
//! is twice as long would measure a different graph. These generators
//! insert below the target and delete at it, at O(1) per insert.

use dynfo_core::Request;
use dynfo_logic::formula::{and, forall, lt, not, v, Formula};

/// SplitMix64: small, fast, and ours — the stream for a seed does not
/// change when the vendored `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2⁻⁴⁰.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent generator for a sub-stream.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }
}

/// One request of Definition 3.1 against the vocabulary `⟨E², s, t⟩`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Ins(u32, u32),
    Del(u32, u32),
    /// `set(s, v)`.
    Set(u32),
}

impl Op {
    pub fn request(self) -> Request {
        match self {
            Op::Ins(a, b) => Request::ins("E", [a, b]),
            Op::Del(a, b) => Request::del("E", [a, b]),
            Op::Set(v) => Request::set("s", v),
        }
    }
}

/// A set of pairs over `0..n` with O(1) insert, delete, membership and
/// uniform pick.
#[derive(Clone, Debug)]
pub struct EdgeSet {
    n: u32,
    present: Vec<(u32, u32)>,
    /// `a * n + b` → position in `present` plus one; 0 = absent.
    slot: Vec<u32>,
}

impl EdgeSet {
    pub fn new(n: u32) -> EdgeSet {
        EdgeSet {
            n,
            present: Vec::new(),
            slot: vec![0; (n * n) as usize],
        }
    }

    fn key(&self, a: u32, b: u32) -> usize {
        (a * self.n + b) as usize
    }

    pub fn len(&self) -> usize {
        self.present.len()
    }

    pub fn contains(&self, a: u32, b: u32) -> bool {
        self.slot[self.key(a, b)] != 0
    }

    pub fn edges(&self) -> &[(u32, u32)] {
        &self.present
    }

    pub fn insert(&mut self, a: u32, b: u32) {
        debug_assert!(!self.contains(a, b));
        self.present.push((a, b));
        let k = self.key(a, b);
        self.slot[k] = self.present.len() as u32;
    }

    pub fn remove(&mut self, a: u32, b: u32) {
        let k = self.key(a, b);
        let pos = self.slot[k] as usize - 1;
        self.slot[k] = 0;
        self.present.swap_remove(pos);
        if let Some(&(c, d)) = self.present.get(pos) {
            let moved = self.key(c, d);
            self.slot[moved] = pos as u32 + 1;
        }
    }
}

/// Which pairs a churn stream may touch.
#[derive(Clone, Copy, Debug)]
pub struct Domain {
    pub n: u32,
    /// Vertices `0..backbone` carry a static chain `i → i+1` that the
    /// stream never touches (served readers query it: the answers do
    /// not depend on how far a concurrent writer has got).
    pub backbone: u32,
    /// Stream `part` of `parts` owns the pairs with
    /// `(a + b) % parts == part`, so concurrent writers never collide.
    pub part: u32,
    pub parts: u32,
}

impl Domain {
    #[cfg(test)]
    fn whole(n: u32) -> Domain {
        Domain {
            n,
            backbone: 0,
            part: 0,
            parts: 1,
        }
    }

    fn owns(&self, a: u32, b: u32) -> bool {
        a < b && (a + b) % self.parts == self.part && !(b == a + 1 && b < self.backbone)
    }

    pub fn backbone_edges(&self) -> impl Iterator<Item = (u32, u32)> {
        (1..self.backbone).map(|b| (b - 1, b))
    }
}

/// Churn held at `target` edges over the pairs `a < b` of a [`Domain`].
/// Read as directed edges low → high it is a DAG by construction (the
/// acyclicity promise of Theorem 4.2 holds for any interleaving of any
/// number of such streams); read as undirected edges it is a simple
/// graph.
///
/// The stream repeats `edge, edge, set, edge, edge`, and an edge step
/// inserts below the target and deletes at it. So once the graph is
/// full the mix is exactly 40% inserts, 40% deletes and 20% `set`
/// requests. The `set` share is there for the median: inserts and
/// deletes cost an order of magnitude apart in every program measured
/// here, and with a 50:50 mix the median update would sit on the
/// boundary between the two modes and jump between them from run to
/// run. With this mix it sits inside the insert mode.
#[derive(Clone, Debug)]
pub struct Churn {
    domain: Domain,
    target: usize,
    rng: Rng,
    edges: EdgeSet,
    ticks: u64,
    deletes: u64,
}

impl Churn {
    pub fn new(domain: Domain, target: usize, rng: Rng) -> Churn {
        Churn {
            domain,
            target,
            rng,
            edges: EdgeSet::new(domain.n),
            ticks: 0,
            deletes: 0,
        }
    }

    pub fn edges(&self) -> &EdgeSet {
        &self.edges
    }

    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Deletes issued so far (a caller stratifying deletes alternates
    /// on its parity).
    pub fn deletes(&self) -> u64 {
        self.deletes
    }

    /// Steps until the graph first reaches its target.
    pub fn fill_steps(&self) -> usize {
        self.target.div_ceil(4) * 5
    }

    fn absent_pair(&mut self) -> (u32, u32) {
        loop {
            let a = self.rng.below(self.domain.n as usize) as u32;
            let b = self.rng.below(self.domain.n as usize) as u32;
            let (a, b) = (a.min(b), a.max(b));
            if self.domain.owns(a, b) && !self.edges.contains(a, b) {
                return (a, b);
            }
        }
    }

    /// The next request. A delete takes a uniformly chosen present edge
    /// among those `prefer` holds for (among all, if it holds for
    /// none).
    pub fn next(&mut self, prefer: impl Fn(u32, u32) -> bool) -> Op {
        self.ticks += 1;
        if self.ticks % 5 == 3 {
            return Op::Set(self.rng.below(self.domain.n as usize) as u32);
        }
        if self.edges.len() < self.target {
            let (a, b) = self.absent_pair();
            self.edges.insert(a, b);
            return Op::Ins(a, b);
        }
        let preferred: Vec<(u32, u32)> = self
            .edges
            .edges()
            .iter()
            .copied()
            .filter(|&(a, b)| prefer(a, b))
            .collect();
        let pool = if preferred.is_empty() {
            self.edges.edges()
        } else {
            &preferred
        };
        let (a, b) = pool[self.rng.below(pool.len())];
        self.edges.remove(a, b);
        self.deletes += 1;
        Op::Del(a, b)
    }

    pub fn step(&mut self) -> Op {
        self.next(|_, _| true)
    }

    /// A uniformly chosen pair of distinct vertices, for queries.
    pub fn query_pair(&mut self) -> (u32, u32) {
        let n = self.domain.n as usize;
        let a = self.rng.below(n);
        let b = (a + 1 + self.rng.below(n - 1)) % n;
        (a as u32, b as u32)
    }
}

/// A pair of distinct backbone vertices and whether the first reaches
/// the second: the backbone is a static chain, and no edge ever points
/// from a higher vertex to a lower one.
pub fn backbone_pair(rng: &mut Rng, backbone: u32) -> (u32, u32, bool) {
    let a = rng.below(backbone as usize);
    let b = (a + 1 + rng.below(backbone as usize - 1)) % backbone as usize;
    (a as u32, b as u32, a < b)
}

/// δ with Θ(n) live tuples: the successor chain `x1 = x0 + 1`.
pub fn delta_chain() -> Formula {
    and([
        lt(v("x0"), v("x1")),
        forall(["z"], not(and([lt(v("x0"), v("z")), lt(v("z"), v("x1"))]))),
    ])
}

/// δ with Θ(n²) live tuples: every ordered pair `x0 < x1`.
pub fn delta_block() -> Formula {
    lt(v("x0"), v("x1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a stream.
    fn stream_hash(ops: impl IntoIterator<Item = Op>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for op in ops {
            let (tag, a, b) = match op {
                Op::Ins(a, b) => (1u64, a, b),
                Op::Del(a, b) => (2u64, a, b),
                Op::Set(v) => (3u64, v, 0),
            };
            for word in [tag, a as u64, b as u64] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn take(mut c: Churn, steps: usize) -> Vec<Op> {
        (0..steps).map(|_| c.step()).collect()
    }

    #[test]
    fn one_seed_gives_one_stream() {
        let make = |seed| Churn::new(Domain::whole(32), 64, Rng::new(seed));
        let a = stream_hash(take(make(7), 5000));
        assert_eq!(a, stream_hash(take(make(7), 5000)));
        assert_ne!(a, stream_hash(take(make(8), 5000)));
        // Pinned: a change to the generator is a change to every
        // workload and must show up here.
        assert_eq!(a, 0x3d86_cb5c_0b21_2cd6, "stream hash {a:#x}");
    }

    #[test]
    fn churn_holds_its_target_and_replays() {
        let mut c = Churn::new(Domain::whole(16), 30, Rng::new(1));
        let mut present = std::collections::BTreeSet::new();
        let fill = c.fill_steps();
        let (mut mix, mut deletes) = ([0usize; 3], 0);
        for step in 0..4000 {
            let op = c.step();
            match op {
                Op::Ins(a, b) => assert!(a < b && present.insert((a, b))),
                Op::Del(a, b) => {
                    deletes += 1;
                    assert!(present.remove(&(a, b)))
                }
                Op::Set(v) => assert!(v < 16),
            }
            if step >= fill {
                assert!(
                    (29..=30).contains(&present.len()),
                    "drifted to {}",
                    present.len()
                );
                mix[match op {
                    Op::Ins(..) => 0,
                    Op::Del(..) => 1,
                    Op::Set(_) => 2,
                }] += 1;
            }
            assert_eq!(present.len(), c.edges().len());
        }
        let total: usize = mix.iter().sum();
        assert!(
            mix[0].abs_diff(total * 2 / 5) <= 1 && mix[2].abs_diff(total / 5) <= 1,
            "{mix:?}"
        );
        assert_eq!(c.deletes(), deletes);
    }

    #[test]
    fn split_domains_are_disjoint_and_spare_the_backbone() {
        let d0 = Domain {
            n: 24,
            backbone: 8,
            part: 0,
            parts: 2,
        };
        let d1 = Domain { part: 1, ..d0 };
        let ops0 = take(Churn::new(d0, 40, Rng::new(3)), 2000);
        let ops1 = take(Churn::new(d1, 40, Rng::new(4)), 2000);
        let pairs = |ops: &[Op]| -> std::collections::BTreeSet<(u32, u32)> {
            ops.iter()
                .filter_map(|op| match *op {
                    Op::Ins(a, b) | Op::Del(a, b) => Some((a, b)),
                    Op::Set(_) => None,
                })
                .collect()
        };
        let (p0, p1) = (pairs(&ops0), pairs(&ops1));
        assert!(p0.is_disjoint(&p1));
        for (a, b) in d0.backbone_edges() {
            assert!(!p0.contains(&(a, b)) && !p1.contains(&(a, b)));
        }
    }

    #[test]
    fn a_stratified_delete_takes_a_preferred_edge() {
        let mut c = Churn::new(Domain::whole(16), 30, Rng::new(5));
        for _ in 0..2000 {
            let even = c.deletes().is_multiple_of(2);
            if let Op::Del(a, b) = c.next(|a, b| ((a + b) % 2 == 0) == even) {
                // Both parities stay plentiful among 30 random edges.
                assert_eq!((a + b) % 2 == 0, even);
            }
        }
    }

    #[test]
    fn backbone_pairs_know_their_answer() {
        let mut rng = Rng::new(9);
        let mut seen = [0; 2];
        for _ in 0..1000 {
            let (a, b, reaches) = backbone_pair(&mut rng, 16);
            assert!(a < 16 && b < 16 && a != b && reaches == (a < b));
            seen[reaches as usize] += 1;
        }
        assert!(seen[0] > 300 && seen[1] > 300);
    }
}
