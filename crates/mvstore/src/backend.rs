//! [`StorageBackend`]: the three store calls the benchmark's storage
//! probe makes through a trait object.
//!
//! There is one store, [`MvStore`], and every scheduler, recovery and
//! resume path calls it directly. The benchmark's `store.*` probe is
//! this trait's only user: it times `with_chain`, `commit_writes` and
//! `prune_before` through an `Arc<dyn StorageBackend>`. Deleting the
//! trait, and handing the probe an `Arc<MvStore>`, is the mechanical
//! follow-up that the benchmark's edit licence covers. Until then, new
//! code calls `MvStore` and stays off this trait.

use crate::chain::VersionChain;
use crate::store::MvStore;
use txn_model::{GranuleId, Timestamp, TxnId};

/// The store calls the benchmark probe makes through a trait object;
/// implemented only by [`MvStore`], whose inherent methods they forward
/// to.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// [`MvStore::with_chain`] with a dynamically dispatched closure.
    fn with_chain_dyn(&self, g: GranuleId, f: &mut dyn FnMut(&mut VersionChain));

    /// [`MvStore::commit_writes`].
    fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]);

    /// [`MvStore::prune_before`].
    fn prune_before(&self, wm: Timestamp) -> usize;
}

impl StorageBackend for MvStore {
    fn with_chain_dyn(&self, g: GranuleId, f: &mut dyn FnMut(&mut VersionChain)) {
        MvStore::with_chain(self, g, |c| f(c));
    }

    fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        MvStore::commit_writes(self, writer, write_set);
    }

    fn prune_before(&self, wm: Timestamp) -> usize {
        MvStore::prune_before(self, wm)
    }
}

impl dyn StorageBackend {
    /// Run `f` with exclusive access to `g`'s chain and return its
    /// result, as [`MvStore::with_chain`] does.
    pub fn with_chain<R>(&self, g: GranuleId, f: impl FnOnce(&mut VersionChain) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.with_chain_dyn(g, &mut |chain| {
            if let Some(f) = f.take() {
                out = Some(f(chain));
            }
        });
        out.expect("with_chain_dyn must invoke the closure exactly once")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use txn_model::{SegmentId, Value};

    /// The benchmark probe's call sequence through the trait object
    /// leaves the store exactly as the same calls on `MvStore` do.
    #[test]
    fn the_probe_sequence_through_the_trait_matches_direct_calls() {
        let seeded = || {
            let s = Arc::new(MvStore::new());
            for key in 0..8 {
                s.seed(
                    GranuleId::new(SegmentId(key as u32 % 2), key),
                    Value::Int(0),
                );
            }
            s
        };
        let (direct, behind) = (seeded(), seeded());
        let dynamic: Arc<dyn StorageBackend> = behind.clone();
        let value = Arc::new(Value::Int(1));
        for i in 1..=64u64 {
            let g = GranuleId::new(SegmentId(i as u32 % 2), i % 8);
            let read =
                |c: &mut VersionChain| c.latest_committed_before(Timestamp::MAX).map(|v| v.ts);
            assert_eq!(dynamic.with_chain(g, read), direct.with_chain(g, read));
            let (ts, writer) = (Timestamp(i), TxnId(i));
            let w = dynamic.with_chain(g, |c| c.mvto_write(ts, Arc::clone(&value), writer));
            assert_eq!(
                w,
                direct.with_chain(g, |c| c.mvto_write(ts, Arc::clone(&value), writer))
            );
            dynamic.commit_writes(writer, &[g]);
            direct.commit_writes(writer, &[g]);
            if i % 16 == 0 {
                assert_eq!(
                    dynamic.prune_before(Timestamp::MAX),
                    direct.prune_before(Timestamp::MAX)
                );
            }
        }
        let snapshot = |s: &MvStore| {
            let mut chains = Vec::new();
            s.for_each_chain(&mut |g, c| {
                let versions: Vec<_> = c.versions().iter().map(|v| (v.ts, v.committed)).collect();
                chains.push((g.segment.0, g.key, versions));
            });
            chains.sort();
            chains
        };
        assert_eq!(snapshot(&behind), snapshot(&direct));
        assert_eq!(behind.version_count(), direct.version_count());
    }
}
