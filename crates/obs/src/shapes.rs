//! Observed transaction shapes: the live input of `hdd-lint`.
//!
//! The paper picks its decomposition a priori from the declared
//! transaction shapes (Section 3). The one live question is whether
//! the shapes the scheduler actually admits still reduce to a TST under
//! the running grouping, and `certify::advise` answers it by linting
//! this table. Each entry is one normalised profile shape — class,
//! sorted deduplicated read segments, sorted deduplicated write
//! segments — and the number of begins that declared it.
//!
//! The table is bounded: it stores at most [`MAX_SHAPES`] distinct
//! shapes, and a begin of a new shape past that bound is counted in
//! `overflow`, not stored. It sits behind one mutex and has its own
//! enable flag (off by default), so an obs-on run with the table off
//! pays one flag load per begin.

use std::collections::BTreeMap;

use mc::sync::{AtomicBool, Mutex, Ordering};

/// Distinct shapes the table stores; later new shapes only count.
pub const MAX_SHAPES: usize = 256;

/// One normalised transaction profile.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Shape {
    /// Class id, or `u32::MAX` for an ad-hoc read-only transaction.
    pub class: u32,
    /// Read segments, sorted and deduplicated.
    pub reads: Vec<u32>,
    /// Written segments, sorted and deduplicated.
    pub writes: Vec<u32>,
}

impl Shape {
    /// Normalise a declared profile: segment order and repeats do not
    /// make a different shape.
    pub fn new(
        class: u32,
        reads: impl IntoIterator<Item = u32>,
        writes: impl IntoIterator<Item = u32>,
    ) -> Shape {
        Shape {
            class,
            reads: sorted(reads),
            writes: sorted(writes),
        }
    }

    /// Does the shape write anything (is it an update shape)?
    pub fn is_update(&self) -> bool {
        !self.writes.is_empty()
    }
}

fn sorted(segments: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut v: Vec<u32> = segments.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The counted shapes and the overflow count, under one lock.
#[derive(Debug, Default)]
struct Counts {
    shapes: BTreeMap<Shape, u64>,
    overflow: u64,
}

/// The bounded table of observed shapes (see module docs). One per
/// [`crate::Obs`], fed by [`crate::Obs::began`].
#[derive(Debug, Default)]
pub struct ShapeTable {
    enabled: AtomicBool,
    counts: Mutex<Counts>,
}

impl ShapeTable {
    /// Is the table recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        // ordering: Relaxed — advisory flag; a begin racing the flip
        // lands on either side of it.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switch recording on or off (off by default).
    pub fn set_enabled(&self, on: bool) {
        // ordering: Relaxed — advisory flag flip, see enabled().
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Count one begin of `shape`; a new shape past [`MAX_SHAPES`]
    /// counts in `overflow` instead.
    pub fn record(&self, shape: Shape) {
        let mut c = self.counts.lock();
        if let Some(n) = c.shapes.get_mut(&shape) {
            *n += 1;
        } else if c.shapes.len() < MAX_SHAPES {
            c.shapes.insert(shape, 1);
        } else {
            c.overflow += 1;
        }
    }

    /// Copy the table, shapes in `Shape` order.
    pub fn snapshot(&self) -> ShapeSnapshot {
        let c = self.counts.lock();
        ShapeSnapshot {
            enabled: self.enabled(),
            shapes: c.shapes.iter().map(|(s, &n)| (s.clone(), n)).collect(),
            overflow: c.overflow,
        }
    }

    /// Clear the counts; the enable flag stays as it is.
    pub fn reset(&self) {
        *self.counts.lock() = Counts::default();
    }
}

/// Point-in-time copy of a [`ShapeTable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShapeSnapshot {
    /// Was the table recording at snapshot time?
    pub enabled: bool,
    /// Every stored shape with its begin count.
    pub shapes: Vec<(Shape, u64)>,
    /// Begins of new shapes the full table did not store.
    pub overflow: u64,
}

impl ShapeSnapshot {
    /// Begins counted: stored shapes plus overflow.
    pub fn begins(&self) -> u64 {
        self.shapes.iter().map(|(_, n)| n).sum::<u64>() + self.overflow
    }

    /// Hand-rolled JSON object (no serde in the offline build); a
    /// read-only shape's class is `null`.
    pub fn to_json(&self) -> String {
        let list = |v: &[u32]| {
            let v: Vec<String> = v.iter().map(u32::to_string).collect();
            v.join(", ")
        };
        let shapes: Vec<String> = self
            .shapes
            .iter()
            .map(|(s, n)| {
                let class = match s.class {
                    u32::MAX => "null".to_string(),
                    c => c.to_string(),
                };
                format!(
                    "{{\"class\": {class}, \"reads\": [{}], \"writes\": [{}], \"count\": {n}}}",
                    list(&s.reads),
                    list(&s.writes)
                )
            })
            .collect();
        format!(
            "{{\"enabled\": {}, \"overflow\": {}, \"shapes\": [{}]}}",
            self.enabled,
            self.overflow,
            shapes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn reordered_or_duplicated_segments_land_in_one_shape() {
        let t = ShapeTable::default();
        t.record(Shape::new(1, [2, 0], [1]));
        t.record(Shape::new(1, [0, 2, 2, 0], [1, 1]));
        t.record(Shape::new(1, [0, 2], [2])); // another write set
        let s = t.snapshot();
        assert_eq!(s.shapes.len(), 2);
        assert_eq!(s.shapes[0].0, Shape::new(1, [0, 2], [1]));
        assert_eq!(s.shapes[0].1, 2);
        assert_eq!(s.begins(), 3);
    }

    #[test]
    fn a_new_shape_past_the_bound_counts_as_overflow() {
        let t = ShapeTable::default();
        for seg in 0..=MAX_SHAPES as u32 {
            t.record(Shape::new(0, [], [seg]));
        }
        t.record(Shape::new(0, [], [0])); // stored: still counted
        let s = t.snapshot();
        assert_eq!(s.shapes.len(), MAX_SHAPES);
        assert_eq!(s.overflow, 1, "the MAX_SHAPES + 1-th shape");
        assert_eq!(s.shapes[0].1, 2);
        assert_eq!(s.begins(), MAX_SHAPES as u64 + 2);
    }

    #[test]
    fn a_disabled_table_records_nothing() {
        let o = Obs::new();
        o.set_enabled(true);
        o.began(0, [1u32].into_iter(), [0u32].into_iter());
        assert_eq!(o.snapshot().shapes, ShapeSnapshot::default());
        o.shapes.set_enabled(true);
        o.set_enabled(false);
        o.began(0, [1u32].into_iter(), [0u32].into_iter());
        assert_eq!(o.snapshot().shapes.begins(), 0, "obs off: nothing");
    }

    #[test]
    fn reset_clears_counts_but_keeps_the_flag() {
        let o = Obs::new();
        o.set_enabled(true);
        o.shapes.set_enabled(true);
        o.began(u32::MAX, [3u32, 1].into_iter(), std::iter::empty());
        let s = o.snapshot().shapes;
        assert_eq!(s.begins(), 1);
        assert!(!s.shapes[0].0.is_update());
        assert_eq!(
            s.to_json(),
            "{\"enabled\": true, \"overflow\": 0, \"shapes\": \
             [{\"class\": null, \"reads\": [1, 3], \"writes\": [], \"count\": 1}]}"
        );
        o.reset();
        let s = o.snapshot().shapes;
        assert!(s.enabled, "reset keeps the enable flag");
        assert_eq!((s.shapes.len(), s.overflow), (0, 0));
    }
}
