//! The paper's motivating retail inventory application (Figure 2,
//! Sections 1.2.1–1.2.2), fully populated.
//!
//! Segment layout:
//!
//! | Segment | Contents | Written by |
//! |---|---|---|
//! | `D0` | sales / sales-modification / merchandise-arrival records | type 1 |
//! | `D1` | current-inventory-level records | type 2 |
//! | `D2` | merchandise-on-order records | type 3 |
//! | `D3` | supplier-profile records (Section 1.2.2 extension) | type 4 |
//! | `D4` | store-accounting records (off-chain branch) | type 5 |
//!
//! DHG reduction: `3 → 2 → 1 → 0 ← 4` — the chain the paper describes
//! plus one sibling branch, so read-only transactions exist both *on* a
//! critical path (Protocol A, Figure 8) and *off* it (Protocol C,
//! Figure 9).
//!
//! Transaction types (paper wording):
//!
//! * **type 1** — "inserts a sales, sales-modification, or a
//!   merchandise-arrival record ... when the event occurs";
//! * **type 2** — "generated periodically for each item to compute the
//!   current inventory level", visiting the event records since the last
//!   posting;
//! * **type 3** — "check for the need of reordering": reads arrivals,
//!   the current inventory level and the on-order records, then posts a
//!   reorder decision;
//! * **type 4** — builds supplier profiles from reorder and arrival
//!   records (the Section 1.2.2 generalization);
//! * **type 5** — posts per-item accounting from the event log (branch);
//! * **report** — ad-hoc read-only over segments on one critical path;
//! * **audit** — ad-hoc read-only spanning both branches (off-chain).

use crate::Workload;
use hdd::analysis::AccessSpec;
use mvstore::MvStore;
use rand::rngs::StdRng;
use rand::Rng;
use txn_model::{ClassId, GranuleId, SegmentId, TxnProfile, TxnProgram, Value};

/// Events per item key-space stride.
const EVENT_STRIDE: u64 = 1_000_000;

/// Configuration of the inventory workload.
#[derive(Debug, Clone)]
pub struct InventoryConfig {
    /// Number of merchandise items.
    pub items: u64,
    /// Number of suppliers (profiles in `D3`).
    pub suppliers: u64,
    /// Relative weight of type-1 (event insert) transactions.
    pub w_type1: u32,
    /// Relative weight of type-2 (inventory posting) transactions.
    pub w_type2: u32,
    /// Relative weight of type-3 (reorder) transactions.
    pub w_type3: u32,
    /// Relative weight of type-4 (supplier profile) transactions.
    pub w_type4: u32,
    /// Relative weight of type-5 (accounting) transactions.
    pub w_type5: u32,
    /// Relative weight of on-chain read-only reports.
    pub w_report: u32,
    /// Relative weight of off-chain read-only audits.
    pub w_audit: u32,
    /// Max event records a type-2/3 transaction scans.
    pub scan_limit: usize,
}

impl Default for InventoryConfig {
    fn default() -> Self {
        InventoryConfig {
            items: 64,
            suppliers: 8,
            w_type1: 50,
            w_type2: 15,
            w_type3: 10,
            w_type4: 5,
            w_type5: 5,
            w_report: 10,
            w_audit: 5,
            scan_limit: 8,
        }
    }
}

/// The inventory workload (stateful: tracks the event log head per item
/// so periodic transactions scan real records).
#[derive(Debug, Clone)]
pub struct Inventory {
    /// Configuration.
    pub config: InventoryConfig,
    /// Next event sequence number per item.
    next_event: Vec<u64>,
    /// Event sequence last consumed by a type-2 posting, per item.
    posted_upto: Vec<u64>,
}

impl Inventory {
    /// Build with the given config.
    pub fn new(config: InventoryConfig) -> Self {
        let items = config.items as usize;
        Inventory {
            config,
            next_event: vec![0; items],
            posted_upto: vec![0; items],
        }
    }

    /// Event-record granule `seq` of `item` (segment `D0`).
    pub fn event(item: u64, seq: u64) -> GranuleId {
        GranuleId::new(SegmentId(0), item * EVENT_STRIDE + seq)
    }

    /// Inventory-level granule of `item` (`D1`).
    pub fn inventory_level(item: u64) -> GranuleId {
        GranuleId::new(SegmentId(1), item)
    }

    /// Merchandise-on-order granule of `item` (`D2`).
    pub fn on_order(item: u64) -> GranuleId {
        GranuleId::new(SegmentId(2), item)
    }

    /// Supplier-profile granule (`D3`).
    pub fn supplier_profile(supplier: u64) -> GranuleId {
        GranuleId::new(SegmentId(3), supplier)
    }

    /// Store-accounting granule of `item` (`D4`).
    pub fn accounting(item: u64) -> GranuleId {
        GranuleId::new(SegmentId(4), item)
    }

    fn pick_item(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.config.items)
    }

    fn type1(&mut self, rng: &mut StdRng, item: u64) -> TxnProgram {
        let seq = self.next_event[item as usize];
        self.next_event[item as usize] += 1;
        let qty = rng.gen_range(-5i64..=10); // sales negative, arrivals positive
        TxnProgram::builder("type1-event")
            .write(Self::event(item, seq), Value::Int(qty))
            .build(TxnProfile::update(ClassId(0), vec![]))
    }

    fn type2(&mut self, item: u64) -> TxnProgram {
        let s = SegmentId;
        let from = self.posted_upto[item as usize];
        let to = self.next_event[item as usize].min(from + self.config.scan_limit as u64);
        self.posted_upto[item as usize] = to;
        let mut b = TxnProgram::builder("type2-post-inventory");
        let events: Vec<GranuleId> = (from..to).map(|q| Self::event(item, q)).collect();
        for &e in &events {
            b = b.read(e);
        }
        let level = Self::inventory_level(item);
        b = b.read(level);
        b = b.write_computed(level, move |ctx| {
            let delta: i64 = events.iter().map(|&e| ctx.int(e)).sum();
            Value::Int(ctx.int(level) + delta)
        });
        b.build(TxnProfile::update(ClassId(1), vec![s(0), s(1)]))
    }

    fn type3(&mut self, item: u64) -> TxnProgram {
        let s = SegmentId;
        // Scan recent arrivals (up to scan_limit of the newest events).
        let head = self.next_event[item as usize];
        let from = head.saturating_sub(self.config.scan_limit as u64);
        let mut b = TxnProgram::builder("type3-reorder");
        for q in from..head {
            b = b.read(Self::event(item, q));
        }
        let level = Self::inventory_level(item);
        let ord = Self::on_order(item);
        b = b.read(level).read(ord);
        b = b.write_computed(ord, move |ctx| {
            // Gross level = current inventory + outstanding orders; order
            // more when it dips below the reorder point.
            let gross = ctx.int(level) + ctx.int(ord);
            if gross < 20 {
                Value::Int(ctx.int(ord) + 25)
            } else {
                Value::Int(ctx.int(ord))
            }
        });
        b.build(TxnProfile::update(ClassId(2), vec![s(0), s(1), s(2)]))
    }

    fn type4(&mut self, item: u64) -> TxnProgram {
        let s = SegmentId;
        let supplier = item % self.config.suppliers;
        let head = self.next_event[item as usize];
        let from = head.saturating_sub(self.config.scan_limit as u64 / 2);
        let mut b = TxnProgram::builder("type4-supplier-profile");
        for q in from..head {
            b = b.read(Self::event(item, q));
        }
        let ord = Self::on_order(item);
        let prof = Self::supplier_profile(supplier);
        b = b.read(ord).read(prof);
        b = b.write_computed(prof, move |ctx| {
            Value::Int(ctx.int(prof) + ctx.int(ord).signum())
        });
        b.build(TxnProfile::update(ClassId(3), vec![s(0), s(2), s(3)]))
    }

    fn type5(&mut self, item: u64) -> TxnProgram {
        let s = SegmentId;
        let head = self.next_event[item as usize];
        let from = head.saturating_sub(self.config.scan_limit as u64);
        let mut b = TxnProgram::builder("type5-accounting");
        let events: Vec<GranuleId> = (from..head).map(|q| Self::event(item, q)).collect();
        for &e in &events {
            b = b.read(e);
        }
        let acct = Self::accounting(item);
        b = b.read(acct);
        b = b.write_computed(acct, move |ctx| {
            let turnover: i64 = events.iter().map(|&e| ctx.int(e).abs()).sum();
            Value::Int(ctx.int(acct) + turnover)
        });
        b.build(TxnProfile::update(ClassId(4), vec![s(0), s(4)]))
    }

    fn report(&self, rng: &mut StdRng, item: u64) -> TxnProgram {
        let s = SegmentId;
        // On one critical path: pick a contiguous stretch of the chain
        // 3 → 2 → 1 → 0.
        let mut b = TxnProgram::builder("report-ro");
        let mut segs = Vec::new();
        if rng.gen_bool(0.5) {
            b = b.read(Self::inventory_level(item));
            segs.push(s(1));
        }
        b = b.read(Self::on_order(item));
        segs.push(s(2));
        if rng.gen_bool(0.5) {
            b = b.read(Self::supplier_profile(item % self.config.suppliers));
            segs.push(s(3));
        }
        b.build(TxnProfile::read_only(segs))
    }

    fn audit(&self, item: u64) -> TxnProgram {
        let s = SegmentId;
        // Off one critical path: spans the accounting branch and the
        // inventory chain.
        TxnProgram::builder("audit-ro")
            .read(Self::inventory_level(item))
            .read(Self::accounting(item))
            .build(TxnProfile::read_only(vec![s(1), s(4)]))
    }
}

impl Workload for Inventory {
    fn name(&self) -> &'static str {
        "inventory"
    }

    fn segments(&self) -> usize {
        5
    }

    fn segment_names(&self) -> Vec<String> {
        ["events", "inventory", "on-order", "supplier", "accounting"]
            .map(String::from)
            .to_vec()
    }

    fn specs(&self) -> Vec<AccessSpec> {
        let s = SegmentId;
        vec![
            AccessSpec::new("type1-event", vec![s(0)], vec![]),
            AccessSpec::new("type2-post-inventory", vec![s(1)], vec![s(0), s(1)]),
            AccessSpec::new("type3-reorder", vec![s(2)], vec![s(0), s(1), s(2)]),
            AccessSpec::new("type4-supplier-profile", vec![s(3)], vec![s(0), s(2), s(3)]),
            AccessSpec::new("type5-accounting", vec![s(4)], vec![s(0), s(4)]),
        ]
    }

    fn seed(&self, store: &MvStore) {
        for item in 0..self.config.items {
            store.seed(Self::inventory_level(item), Value::Int(30));
            store.seed(Self::on_order(item), Value::Int(0));
            store.seed(Self::accounting(item), Value::Int(0));
        }
        for supplier in 0..self.config.suppliers {
            store.seed(Self::supplier_profile(supplier), Value::Int(0));
        }
    }

    fn generate(&mut self, rng: &mut StdRng) -> TxnProgram {
        let c = &self.config;
        let total =
            c.w_type1 + c.w_type2 + c.w_type3 + c.w_type4 + c.w_type5 + c.w_report + c.w_audit;
        let mut pick = rng.gen_range(0..total);
        let item = self.pick_item(rng);
        for (w, which) in [
            (c.w_type1, 0u8),
            (c.w_type2, 1),
            (c.w_type3, 2),
            (c.w_type4, 3),
            (c.w_type5, 4),
            (c.w_report, 5),
            (c.w_audit, 6),
        ] {
            if pick < w {
                return match which {
                    0 => self.type1(rng, item),
                    1 => self.type2(item),
                    2 => self.type3(item),
                    3 => self.type4(item),
                    4 => self.type5(item),
                    5 => self.report(rng, item),
                    _ => self.audit(item),
                };
            }
            pick -= w;
        }
        unreachable!("weights cover the range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hierarchy_is_chain_plus_branch() {
        let w = Inventory::new(InventoryConfig::default());
        let h = w.hierarchy();
        assert_eq!(h.class_count(), 5);
        // Chain 3 → 2 → 1 → 0.
        assert!(h.paths().is_critical_arc(3, 2));
        assert!(h.paths().is_critical_arc(2, 1));
        assert!(h.paths().is_critical_arc(1, 0));
        // Branch 4 → 0.
        assert!(h.paths().is_critical_arc(4, 0));
        // Induced arcs are not critical.
        assert!(!h.paths().is_critical_arc(2, 0));
        // On/off chain read-only classification.
        let s = SegmentId;
        assert!(h.read_only_on_one_critical_path(&[s(1), s(2), s(3)]));
        assert!(!h.read_only_on_one_critical_path(&[s(1), s(4)]));
    }

    #[test]
    fn every_generated_program_validates() {
        let mut w = Inventory::new(InventoryConfig::default());
        let h = w.hierarchy();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let p = w.generate(&mut rng);
            assert!(
                h.validate_profile(&p.profile).is_ok(),
                "generated profile must be legal: {:?}",
                p.profile
            );
            // Steps stay inside the declared segments.
            for st in &p.steps {
                let seg = st.granule().segment;
                let declared = p
                    .profile
                    .read_segments
                    .iter()
                    .chain(&p.profile.write_segments)
                    .any(|&s| s == seg);
                assert!(declared, "step touches undeclared segment {seg}");
            }
        }
    }

    #[test]
    fn type2_consumes_events_in_order() {
        let mut w = Inventory::new(InventoryConfig {
            items: 1,
            ..InventoryConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        // Three events for item 0.
        for _ in 0..3 {
            w.type1(&mut rng, 0);
        }
        let p = w.type2(0);
        // Reads 3 events + the level.
        assert_eq!(p.read_count(), 4);
        // A second posting with no new events scans nothing.
        let p2 = w.type2(0);
        assert_eq!(p2.read_count(), 1);
    }

    #[test]
    fn type3_reorders_only_below_threshold() {
        use txn_model::program::ReadCtx;
        use txn_model::Step;
        let mut w = Inventory::new(InventoryConfig {
            items: 1,
            ..InventoryConfig::default()
        });
        let p = w.type3(0);
        let Step::Write(_, src) = p.steps.last().unwrap() else {
            panic!("type3 ends with a write");
        };
        // Gross level below 20: order 25 more.
        let mut low = ReadCtx::default();
        low.record(
            Inventory::inventory_level(0),
            std::sync::Arc::new(Value::Int(5)),
        );
        low.record(Inventory::on_order(0), std::sync::Arc::new(Value::Int(0)));
        assert_eq!(src.resolve(&low), Value::Int(25));
        // Gross level at/above 20: no new order.
        let mut high = ReadCtx::default();
        high.record(
            Inventory::inventory_level(0),
            std::sync::Arc::new(Value::Int(30)),
        );
        high.record(Inventory::on_order(0), std::sync::Arc::new(Value::Int(0)));
        assert_eq!(src.resolve(&high), Value::Int(0));
        // Outstanding orders count toward the gross level.
        let mut covered = ReadCtx::default();
        covered.record(
            Inventory::inventory_level(0),
            std::sync::Arc::new(Value::Int(5)),
        );
        covered.record(Inventory::on_order(0), std::sync::Arc::new(Value::Int(25)));
        assert_eq!(src.resolve(&covered), Value::Int(25));
    }

    #[test]
    fn seed_populates_all_segments() {
        let w = Inventory::new(InventoryConfig::default());
        let store = MvStore::new();
        w.seed(&store);
        assert_eq!(
            store.latest_value(Inventory::inventory_level(0)),
            Value::Int(30)
        );
        assert_eq!(store.latest_value(Inventory::accounting(3)), Value::Int(0));
        assert_eq!(
            store.latest_value(Inventory::supplier_profile(1)),
            Value::Int(0)
        );
    }
}
