//! The Figure 1 banking workload: concurrent deposits and withdrawals
//! against shared accounts.
//!
//! Each transaction reads one account balance and writes back a modified
//! balance (read-modify-write). Under any serializable scheduler, the
//! final total across accounts equals the initial total plus the sum of
//! the committed deltas; under [`NoControl`](../../baselines) updates are
//! lost (experiment E1 measures the shortfall).

use crate::Workload;
use hdd::analysis::AccessSpec;
use mvstore::MvStore;
use rand::rngs::StdRng;
use rand::Rng;
use txn_model::{ClassId, GranuleId, SegmentId, TxnProfile, TxnProgram, Value};

/// Fixed deposit amount (Figure 1 uses $50).
pub const DEPOSIT: i64 = 50;
/// Fixed withdrawal amount.
pub const WITHDRAWAL: i64 = -50;
/// Initial balance of every account.
pub const INITIAL_BALANCE: i64 = 100;

/// The banking workload.
#[derive(Debug, Clone)]
pub struct Banking {
    /// Number of accounts.
    pub accounts: u64,
    /// Probability a transaction is a deposit (vs a withdrawal).
    pub deposit_prob: f64,
    /// Probability a transaction is a two-account transfer instead of a
    /// deposit/withdrawal. Transfers conserve the total balance, so any
    /// serializable execution keeps `total = initial + Σ single-account
    /// deltas` — the conservation invariant the integration tests check.
    pub transfer_prob: f64,
}

impl Banking {
    /// `accounts` accounts, all starting at [`INITIAL_BALANCE`].
    pub fn new(accounts: u64) -> Self {
        Banking {
            accounts,
            deposit_prob: 0.5,
            transfer_prob: 0.0,
        }
    }

    /// A transfers-only workload over `accounts` accounts.
    pub fn transfers(accounts: u64) -> Self {
        Banking {
            accounts,
            deposit_prob: 0.5,
            transfer_prob: 1.0,
        }
    }

    /// Account granule id.
    pub fn account(&self, i: u64) -> GranuleId {
        GranuleId::new(SegmentId(0), i)
    }

    /// The delta a program label carries ("deposit" / "withdraw").
    pub fn delta_of(label: &str) -> i64 {
        match label {
            "deposit" => DEPOSIT,
            "withdraw" => WITHDRAWAL,
            other => panic!("unknown banking label {other}"),
        }
    }

    /// Total balance across all accounts in a store.
    pub fn total_balance(&self, store: &MvStore) -> i64 {
        (0..self.accounts)
            .map(|i| store.latest_value(self.account(i)).as_int())
            .sum()
    }
}

impl Workload for Banking {
    fn name(&self) -> &'static str {
        "banking"
    }

    fn segments(&self) -> usize {
        1
    }

    fn segment_names(&self) -> Vec<String> {
        vec!["accounts".to_string()]
    }

    fn specs(&self) -> Vec<AccessSpec> {
        vec![AccessSpec::new(
            "account-rmw",
            vec![SegmentId(0)],
            vec![SegmentId(0)],
        )]
    }

    fn seed(&self, store: &MvStore) {
        for i in 0..self.accounts {
            store.seed(self.account(i), Value::Int(INITIAL_BALANCE));
        }
    }

    fn generate(&mut self, rng: &mut StdRng) -> TxnProgram {
        if self.accounts >= 2 && rng.gen_bool(self.transfer_prob) {
            // Two-account transfer: read both, move a fixed amount.
            let from = rng.gen_range(0..self.accounts);
            let mut to = rng.gen_range(0..self.accounts);
            while to == from {
                to = rng.gen_range(0..self.accounts);
            }
            let (from, to) = (self.account(from), self.account(to));
            let amount = rng.gen_range(1..=25i64);
            return TxnProgram::builder("transfer")
                .read(from)
                .read(to)
                .write_computed(from, move |ctx| Value::Int(ctx.int(from) - amount))
                .write_computed(to, move |ctx| Value::Int(ctx.int(to) + amount))
                .build(TxnProfile::update(ClassId(0), vec![SegmentId(0)]));
        }
        let acct = self.account(rng.gen_range(0..self.accounts));
        let (label, delta) = if rng.gen_bool(self.deposit_prob) {
            ("deposit", DEPOSIT)
        } else {
            ("withdraw", WITHDRAWAL)
        };
        TxnProgram::builder(label)
            .read(acct)
            .write_computed(acct, move |ctx| Value::Int(ctx.int(acct) + delta))
            .build(TxnProfile::update(ClassId(0), vec![SegmentId(0)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hierarchy_is_a_single_class() {
        let w = Banking::new(4);
        let h = w.hierarchy();
        assert_eq!(h.class_count(), 1);
    }

    #[test]
    fn seed_sets_initial_balances() {
        let w = Banking::new(4);
        let store = MvStore::new();
        w.seed(&store);
        assert_eq!(w.total_balance(&store), 4 * INITIAL_BALANCE);
    }

    #[test]
    fn transfers_touch_two_distinct_accounts() {
        let mut w = Banking::transfers(4);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let p = w.generate(&mut rng);
            assert_eq!(p.label, "transfer");
            assert_eq!(p.read_count(), 2);
            assert_eq!(p.write_count(), 2);
            assert_ne!(p.steps[0].granule(), p.steps[1].granule());
        }
    }

    #[test]
    fn generated_programs_are_rmw() {
        let mut w = Banking::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let p = w.generate(&mut rng);
            assert_eq!(p.read_count(), 1);
            assert_eq!(p.write_count(), 1);
            assert_eq!(p.steps[0].granule(), p.steps[1].granule());
            assert!(p.label == "deposit" || p.label == "withdraw");
            let _ = Banking::delta_of(&p.label);
        }
    }
}
