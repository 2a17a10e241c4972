//! Conservation under transfers: a classic end-to-end invariant. Every
//! serializable scheduler must conserve the total balance across
//! two-account transfers under both drivers; no-control must break it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::driver::{run_interleaved, DriverConfig};
use sim::factory::{build_scheduler, SchedulerKind, ALL_KINDS};
use txn_model::TxnProgram;
use workloads::banking::{Banking, INITIAL_BALANCE};
use workloads::Workload;

fn transfer_batch(accounts: u64, n: usize, seed: u64) -> (Banking, Vec<TxnProgram>) {
    let mut w = Banking::transfers(accounts);
    let mut rng = StdRng::seed_from_u64(seed);
    let programs = (0..n).map(|_| w.generate(&mut rng)).collect();
    (w, programs)
}

#[test]
fn all_sound_schedulers_conserve_money_interleaved() {
    for &kind in ALL_KINDS {
        let (w, programs) = transfer_batch(6, 150, 71);
        let (sched, store) = build_scheduler(kind, &w);
        let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
        assert_eq!(stats.serializable, Some(true), "{}", kind.name());
        assert_eq!(stats.stalled, 0, "{}", kind.name());
        assert_eq!(
            w.total_balance(store.as_ref()),
            6 * INITIAL_BALANCE,
            "{} lost or created money",
            kind.name()
        );
    }
}

#[test]
fn hdd_and_locking_conserve_money_concurrently() {
    for kind in [
        SchedulerKind::Hdd,
        SchedulerKind::TwoPl,
        SchedulerKind::Mvto,
        SchedulerKind::Sdd1,
    ] {
        let (w, programs) = transfer_batch(6, 200, 72);
        let (sched, store) = build_scheduler(kind, &w);
        let out = run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
        assert_eq!(out.stats.serializable, Some(true), "{}", kind.name());
        // 2PL may exhaust retry budgets in upgrade-deadlock storms
        // (transfers S-lock both accounts then upgrade); a given-up
        // transfer aborts atomically, so conservation must hold
        // regardless.
        assert_eq!(
            out.stats.committed + out.stats.gave_up,
            200,
            "{}",
            kind.name()
        );
        assert_eq!(
            w.total_balance(store.as_ref()),
            6 * INITIAL_BALANCE,
            "{} lost or created money under threads",
            kind.name()
        );
    }
}

#[test]
fn nocontrol_violates_conservation() {
    // Enough concurrent transfers over few hot accounts that at least
    // one lost update hits.
    let (w, programs) = transfer_batch(2, 120, 73);
    let (sched, store) = build_scheduler(SchedulerKind::NoControl, &w);
    let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
    assert_eq!(stats.committed, 120);
    assert_ne!(
        w.total_balance(store.as_ref()),
        2 * INITIAL_BALANCE,
        "no-control should break conservation on hot accounts"
    );
}
