//! Parameterized synthetic hierarchy workloads.
//!
//! The paper's advantage grows with the share of cross-class reads and
//! the depth of the hierarchy; this generator sweeps exactly those
//! parameters. The hierarchy is a complete tree of the given depth and
//! fan-out with arcs pointing child → parent (a transaction class reads
//! its ancestors and writes its own segment), which is always a
//! transitive semi-tree.

use crate::zipf::Zipf;
use crate::Workload;
use hdd::analysis::AccessSpec;
use mvstore::MvStore;
use rand::rngs::StdRng;
use rand::Rng;
use txn_model::{ClassId, GranuleId, SegmentId, TxnProfile, TxnProgram, Value};

/// Configuration of the synthetic workload.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Tree depth (1 = a single root segment).
    pub depth: usize,
    /// Children per node.
    pub fanout: usize,
    /// Granules per segment.
    pub granules_per_segment: u64,
    /// Reads per ancestor segment in an update transaction.
    pub reads_per_ancestor: usize,
    /// Zipf exponent over granule keys (0 = uniform).
    pub theta: f64,
    /// Probability a generated transaction is read-only.
    pub read_only_share: f64,
    /// Probability a read-only transaction reads across branches
    /// (off one critical path → Protocol C under HDD).
    pub off_chain_share: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            depth: 3,
            fanout: 2,
            granules_per_segment: 128,
            reads_per_ancestor: 2,
            theta: 0.8,
            read_only_share: 0.2,
            off_chain_share: 0.5,
        }
    }
}

/// The synthetic tree workload.
#[derive(Debug, Clone)]
pub struct Synthetic {
    /// Configuration.
    pub config: SyntheticConfig,
    /// Parent of each segment (root = None).
    parent: Vec<Option<usize>>,
    /// Leaves of the tree.
    leaves: Vec<usize>,
    zipf: Zipf,
}

impl Synthetic {
    /// Build the tree.
    pub fn new(config: SyntheticConfig) -> Self {
        assert!(config.depth >= 1);
        assert!(config.fanout >= 1);
        // Breadth-first numbering: 0 is the root.
        let mut parent: Vec<Option<usize>> = vec![None];
        let mut frontier = vec![0usize];
        for _ in 1..config.depth {
            let mut next = Vec::new();
            for &p in &frontier {
                for _ in 0..config.fanout {
                    let id = parent.len();
                    parent.push(Some(p));
                    next.push(id);
                }
            }
            frontier = next;
        }
        let leaves = frontier;
        let zipf = Zipf::new(config.granules_per_segment as usize, config.theta);
        Synthetic {
            config,
            parent,
            leaves,
            zipf,
        }
    }

    /// Number of segments in the tree.
    pub fn segment_count(&self) -> usize {
        self.parent.len()
    }

    /// Ancestors of `seg` (excluding itself), nearest first.
    pub fn ancestors(&self, seg: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.parent[seg];
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent[p];
        }
        out
    }

    fn granule(&self, seg: usize, rng: &mut StdRng) -> GranuleId {
        GranuleId::new(SegmentId(seg as u32), self.zipf.sample(rng) as u64)
    }

    fn update_txn(&self, rng: &mut StdRng) -> TxnProgram {
        let seg = rng.gen_range(0..self.segment_count());
        let ancestors = self.ancestors(seg);
        let mut b = TxnProgram::builder(format!("update-c{seg}"));
        for &a in &ancestors {
            for _ in 0..self.config.reads_per_ancestor {
                b = b.read(self.granule(a, rng));
            }
        }
        let own = self.granule(seg, rng);
        b = b.read(own);
        b = b.write_computed(own, move |ctx| Value::Int(ctx.int(own) + 1));
        let mut read_segs: Vec<SegmentId> =
            ancestors.iter().map(|&a| SegmentId(a as u32)).collect();
        read_segs.push(SegmentId(seg as u32));
        b.build(TxnProfile::update(ClassId(seg as u32), read_segs))
    }

    fn read_only_txn(&self, rng: &mut StdRng) -> TxnProgram {
        let off_chain = self.leaves.len() >= 2 && rng.gen_bool(self.config.off_chain_share);
        let mut b = TxnProgram::builder(if off_chain { "ro-offchain" } else { "ro-chain" });
        let mut segs = Vec::new();
        if off_chain {
            // Two distinct leaves (different branches when fanout > 1).
            let a = self.leaves[rng.gen_range(0..self.leaves.len())];
            let mut c = self.leaves[rng.gen_range(0..self.leaves.len())];
            while c == a && self.leaves.len() > 1 {
                c = self.leaves[rng.gen_range(0..self.leaves.len())];
            }
            for seg in [a, c] {
                b = b.read(self.granule(seg, rng));
                segs.push(SegmentId(seg as u32));
            }
        } else {
            // A leaf-to-root chain.
            let leaf = self.leaves[rng.gen_range(0..self.leaves.len())];
            b = b.read(self.granule(leaf, rng));
            segs.push(SegmentId(leaf as u32));
            for a in self.ancestors(leaf) {
                b = b.read(self.granule(a, rng));
                segs.push(SegmentId(a as u32));
            }
        }
        b.build(TxnProfile::read_only(segs))
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn segments(&self) -> usize {
        self.segment_count()
    }

    fn specs(&self) -> Vec<AccessSpec> {
        (0..self.segment_count())
            .map(|seg| {
                let mut reads: Vec<SegmentId> = self
                    .ancestors(seg)
                    .into_iter()
                    .map(|a| SegmentId(a as u32))
                    .collect();
                reads.push(SegmentId(seg as u32));
                AccessSpec::new(format!("class-{seg}"), vec![SegmentId(seg as u32)], reads)
            })
            .collect()
    }

    fn seed(&self, store: &MvStore) {
        for seg in 0..self.segment_count() {
            for key in 0..self.config.granules_per_segment {
                store.seed(GranuleId::new(SegmentId(seg as u32), key), Value::Int(0));
            }
        }
    }

    fn generate(&mut self, rng: &mut StdRng) -> TxnProgram {
        if rng.gen_bool(self.config.read_only_share) {
            self.read_only_txn(rng)
        } else {
            self.update_txn(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn tree_shape() {
        let w = Synthetic::new(SyntheticConfig {
            depth: 3,
            fanout: 2,
            ..SyntheticConfig::default()
        });
        assert_eq!(w.segment_count(), 1 + 2 + 4);
        assert_eq!(w.leaves.len(), 4);
        assert_eq!(w.ancestors(0), Vec::<usize>::new());
        let leaf = w.leaves[0];
        assert_eq!(w.ancestors(leaf).len(), 2);
    }

    #[test]
    fn hierarchy_validates_as_tst() {
        for (depth, fanout) in [(1, 1), (2, 3), (3, 2), (4, 2)] {
            let w = Synthetic::new(SyntheticConfig {
                depth,
                fanout,
                ..SyntheticConfig::default()
            });
            let h = w.hierarchy(); // panics internally if not a TST
            assert_eq!(h.class_count(), w.segment_count());
        }
    }

    #[test]
    fn generated_programs_validate() {
        let mut w = Synthetic::new(SyntheticConfig::default());
        let h = w.hierarchy();
        let mut rng = StdRng::seed_from_u64(11);
        let mut saw_ro = false;
        let mut saw_update = false;
        for _ in 0..300 {
            let p = w.generate(&mut rng);
            assert!(h.validate_profile(&p.profile).is_ok());
            if p.profile.is_read_only() {
                saw_ro = true;
            } else {
                saw_update = true;
            }
        }
        assert!(saw_ro && saw_update);
    }

    #[test]
    fn off_chain_read_only_spans_branches() {
        let mut w = Synthetic::new(SyntheticConfig {
            depth: 3,
            fanout: 2,
            read_only_share: 1.0,
            off_chain_share: 1.0,
            ..SyntheticConfig::default()
        });
        let h = w.hierarchy();
        let mut rng = StdRng::seed_from_u64(5);
        let mut found_off_chain = false;
        for _ in 0..50 {
            let p = w.generate(&mut rng);
            if !h.read_only_on_one_critical_path(&p.profile.read_segments) {
                found_off_chain = true;
            }
        }
        assert!(found_off_chain, "expected off-chain read-only programs");
    }
}
